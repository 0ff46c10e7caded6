package core

import (
	"testing"

	"rtad/internal/attack"
	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

// captureStream records a benchmark run as the raw branch-broadcast PTM
// byte stream, the input of trace-replay sessions.
func captureStream(t testing.TB, bench string, instr int64) []byte {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		stream = enc.EncodeInto(stream, ev)
		return 0
	})})
	if _, err := c.Run(instr); err != nil {
		t.Fatal(err)
	}
	return append(stream, enc.Flush()...)
}

// TestOpenMatchesRunDetection: the options path must reproduce the batch
// detection run (its frozen copy, runDetectionLegacy) bit for bit — same
// judgments, same detection summary.
func TestOpenMatchesRunDetection(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	const instr = 2_000_000
	spec := AttackSpec{BurstLen: 16384, Seed: 3}

	want, _, _, err := runDetectionLegacy(dep, PipelineConfig{CUs: 5}, spec, instr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Deployments{dep},
		WithConfig(PipelineConfig{CUs: 5}),
		WithAttack(spec.Resolve(instr)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Detect(instr)
	if err != nil {
		t.Fatal(err)
	}
	if got.InjectTime != want.InjectTime || got.Latency != want.Latency ||
		got.MeanLatency != want.MeanLatency || got.IRQTime != want.IRQTime ||
		got.Judged != want.Judged || got.Dropped != want.Dropped ||
		got.Detected != want.Detected {
		t.Fatalf("Open path diverged from the batch run:\n got %+v\nwant %+v", got, want)
	}
}

// TestOpenRejectsBadDeployments covers the arity and dual-lane validation,
// and settings outside their owners' bounds.
func TestOpenRejectsBadDeployments(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	if _, err := Open(Deployments{}); err == nil {
		t.Error("Open accepted zero deployments")
	}
	if _, err := Open(Deployments{dep, dep}); err == nil {
		t.Error("Open accepted LSTM in the ELM lane")
	}
	for name, opt := range map[string]Option{
		"an attack with no burst length": WithAttack(AttackSpec{}),
		"a burst above MaxBurstLen":      WithAttack(AttackSpec{BurstLen: attack.MaxBurstLen + 1}),
		"CUs above MaxCUs":               WithConfig(PipelineConfig{CUs: MaxCUs + 1}),
		"negative CUs":                   WithConfig(PipelineConfig{CUs: -1}),
		"a negative stride":              WithConfig(PipelineConfig{Stride: -1}),
		"an unknown backend":             WithConfig(PipelineConfig{Backend: "tpu"}),
		"a negative replay gap":          WithTraceInput(-1),
		"a gap above MaxReplayGap":       WithTraceInput(MaxReplayGap + 1),
	} {
		if _, err := Open(Deployments{dep}, opt); err == nil {
			t.Errorf("Open accepted %s", name)
		}
	}
}

// TestFeedTraceChunkingInvariance: a replayed stream yields bit-identical
// judgments whether fed byte-by-byte or in one call — the property the
// serving layer's framing relies on.
func TestFeedTraceChunkingInvariance(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 600_000)

	run := func(chunk int) []Judged {
		s, err := Open(Deployments{dep}, WithTraceInput(0))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			if err := s.FeedTrace(stream[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s.Results()
	}
	whole := run(len(stream))
	byteAtATime := run(1)
	if len(whole) == 0 {
		t.Fatal("no judgments from replay; lengthen the capture")
	}
	if len(whole) != len(byteAtATime) {
		t.Fatalf("chunking changed judgment count: %d vs %d", len(whole), len(byteAtATime))
	}
	for i := range whole {
		a, b := whole[i], byteAtATime[i]
		if a.Vector.Seq != b.Vector.Seq || a.Rec.Done != b.Rec.Done ||
			a.FinalRetire != b.FinalRetire || a.Rec.Judgment != b.Rec.Judgment {
			t.Fatalf("judgment %d depends on chunking", i)
		}
	}
	bytes, events, decErrs := func() (int64, int64, int) {
		s, err := Open(Deployments{dep}, WithTraceInput(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedTrace(stream); err != nil {
			t.Fatal(err)
		}
		return s.ReplayStats()
	}()
	if bytes != int64(len(stream)) || events == 0 || decErrs != 0 {
		t.Fatalf("ReplayStats = (%d, %d, %d) for a %d-byte clean stream", bytes, events, decErrs, len(stream))
	}
}

// TestTraceInputFrontEndExclusivity: Step and FeedTrace belong to different
// front-ends and must reject each other's sessions.
func TestTraceInputFrontEndExclusivity(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	replay, err := Open(Deployments{dep}, WithTraceInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Step(1000); err == nil {
		t.Error("Step accepted a trace-input session")
	}
	live, err := Open(Deployments{dep})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.FeedTrace([]byte{0x00}); err == nil {
		t.Error("FeedTrace accepted a live-CPU session")
	}
	if live.Instret() != 0 || replay.Instret() != 0 {
		t.Error("fresh sessions report nonzero instret")
	}
	if replay.Halted() {
		t.Error("trace-input session reports Halted")
	}
}

// TestReplayAttackInjection: the injector splices the burst into a replayed
// stream exactly as it does into a live run, and the summary works.
func TestReplayAttackInjection(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 2_000_000)
	s, err := Open(Deployments{dep}, WithTraceInput(0),
		WithAttack(AttackSpec{TriggerBranch: 1000, BurstLen: 16384, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedTrace(stream); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !s.AttackFired() {
		t.Fatal("attack never fired in the replayed stream")
	}
	res, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if res.First == nil || res.Latency <= 0 {
		t.Fatalf("replay detection summary implausible: %+v", res)
	}
	if s.MCMStats().Accepted == 0 {
		t.Fatal("MCMStats reports nothing accepted")
	}
}

// countingEngine is a pass-through Backend wrapper counting Infer calls.
type countingEngine struct {
	kernels.Backend
	calls int
}

func (c *countingEngine) Infer(w []int32) (kernels.Judgment, int64, error) {
	c.calls++
	return c.Backend.Infer(w)
}

// TestOpenEngineWrap: WithEngineWrap intercepts every lane's Infer calls
// and a contract-preserving wrapper leaves the judgment stream untouched.
func TestOpenEngineWrap(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 600_000)

	run := func(opts ...Option) []Judged {
		s, err := Open(Deployments{dep}, append([]Option{WithTraceInput(0)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedTrace(stream); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s.Results()
	}
	want := run()
	var wrapped *countingEngine
	got := run(WithEngineWrap(func(b kernels.Backend) kernels.Backend {
		wrapped = &countingEngine{Backend: b}
		return wrapped
	}))
	if wrapped == nil || wrapped.calls == 0 {
		t.Fatal("EngineWrap wrapper never saw an Infer call")
	}
	if len(got) != len(want) {
		t.Fatalf("wrapped session judged %d vectors, unwrapped %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Rec.Judgment != want[i].Rec.Judgment || got[i].Rec.Done != want[i].Rec.Done {
			t.Fatalf("judgment %d diverged under EngineWrap: %+v vs %+v", i, got[i].Rec, want[i].Rec)
		}
	}
	if wrapped.calls != len(got) {
		t.Fatalf("wrapper saw %d Infer calls for %d judgments", wrapped.calls, len(got))
	}
}
