package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rtad/internal/attack"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// captureStream is CaptureTrace for a benchmark named in a test.
func captureStream(t testing.TB, bench string, instr int64) []byte {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	stream, err := CaptureTrace(p, instr)
	if err != nil {
		t.Fatal(err)
	}
	return stream
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

// TestReplayMidStreamInject: an attack armed partway through a replayed
// stream, with its trigger counted from the arming point, gives the same
// judgments, ReplayStats and Summary as the same attack armed at Open with
// the trigger counted from the start. Every replayed event is a taken
// transfer, so the two trigger counts meet at the same event.
func TestReplayMidStreamInject(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 2_000_000)
	cut := len(stream) / 3
	open := func(opts ...Option) *Session {
		t.Helper()
		s, err := Open(Deployments{dep}, append([]Option{WithConfig(PipelineConfig{Stride: 512}), WithTraceInput(0)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// finish feeds the rest of the stream, drains, and returns everything
	// the session delivered, after judged, with its ReplayStats.
	finish := func(s *Session, judged []Judged, rest []byte) replayRun {
		t.Helper()
		if err := s.FeedTrace(rest); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		r := replayRun{judged: append(judged, s.Results()...)}
		r.bytes, r.events, r.decErrs = s.ReplayStats()
		return r
	}

	mid := open()
	if err := mid.FeedTrace(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	before := mid.Results()
	_, armed, _ := mid.ReplayStats()
	trigger := armed + 1000
	spec := AttackSpec{BurstLen: 16384, Seed: 7}
	spec.TriggerBranch = trigger - armed
	if err := mid.Inject(spec); err != nil {
		t.Fatal(err)
	}
	got := finish(mid, before, stream[cut:])

	spec.TriggerBranch = trigger
	atOpen := open(WithAttack(spec))
	want := finish(atOpen, nil, stream)

	if len(before) == 0 {
		t.Fatal("no judgment before arming: move the cut")
	}
	if !mid.AttackFired() {
		t.Fatal("mid-stream attack never fired")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-stream Inject diverges from arming at Open: %d vs %d judgments, ReplayStats (%d, %d, %d) vs (%d, %d, %d)",
			len(got.judged), len(want.judged), got.bytes, got.events, got.decErrs, want.bytes, want.events, want.decErrs)
	}
	if mid.InjectTime() != atOpen.InjectTime() {
		t.Errorf("inject time %v, armed at Open %v", mid.InjectTime(), atOpen.InjectTime())
	}
	gotRes, err := mid.Summary()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := atOpen.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("Summary diverges:\n got %+v\nwant %+v", gotRes, wantRes)
	}
}

// TestReplayClockBound: a trace-replay session ends with
// ErrReplayClockExhausted before it synthesizes a branch event past
// MaxReplayCycles, delivers what it judged up to there with unwrapped
// times, and refuses every later feed and the drain. The clock starts just
// below the bound instead of being streamed there.
func TestReplayClockBound(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 400_000)
	s, err := Open(Deployments{dep}, WithConfig(PipelineConfig{Stride: 8}), WithTraceInput(MaxReplayGap))
	if err != nil {
		t.Fatal(err)
	}
	const room = 1000 // events of MaxReplayGap cycles left before the bound
	start := int64(MaxReplayCycles - room*MaxReplayGap)
	s.front.cycle = start

	err = s.FeedTrace(stream)
	if !errors.Is(err, ErrReplayClockExhausted) {
		t.Fatalf("FeedTrace past the bound returned %v, want ErrReplayClockExhausted", err)
	}
	if !strings.Contains(err.Error(), "MaxReplayCycles") {
		t.Errorf("error %q does not name the bound", err)
	}
	bytes, events, _ := s.ReplayStats()
	if events < 1 || events > room+1 {
		t.Errorf("%d events synthesized in %d gaps before the bound", events, room)
	}
	// The session read the stream up to the end of the refused event's
	// branch packet, and not a byte further.
	dec := ptm.NewStreamDecoder()
	var branches, end int64
	for i, b := range stream {
		if pkt, ok := dec.FeedByte(b); ok && pkt.Type == ptm.PktBranch {
			if branches == events {
				end = int64(i + 1)
				break
			}
			branches++
		}
	}
	if bytes != end {
		t.Errorf("ReplayStats read %d bytes at the break; branch packet %d ends at byte %d", bytes, events, end)
	}
	if s.front.cycle <= MaxReplayCycles {
		t.Errorf("stopped at cycle %d, before the bound %d", s.front.cycle, int64(MaxReplayCycles))
	}
	judged := s.Results()
	if len(judged) == 0 {
		t.Fatal("nothing judged before the bound")
	}
	lo, hi := sim.CPUClock.Duration(start), sim.CPUClock.Duration(MaxReplayCycles)
	for i, j := range judged {
		if j.FinalRetire < lo || j.FinalRetire > hi || j.Rec.Done <= j.FinalRetire {
			t.Fatalf("judgment %d: retire %d, done %d outside the clock's last stretch [%d, %d]",
				i, j.FinalRetire, j.Rec.Done, lo, hi)
		}
	}
	if err := s.FeedTrace(stream[:64]); !errors.Is(err, ErrReplayClockExhausted) {
		t.Errorf("a feed after the end returned %v", err)
	}
	if err := s.Drain(); !errors.Is(err, ErrReplayClockExhausted) {
		t.Errorf("Drain after the end returned %v", err)
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

// TestOpenEngineWrap: WithEngineWrap intercepts every lane's Infer calls,
// a contract-preserving wrapper leaves the judgment stream untouched, and
// Open's options compose in any order — WithConfig keeps the wrapper and
// the telemetry bundle whether it comes before, between or after them.
func TestOpenEngineWrap(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 600_000)

	run := func(t *testing.T, opts ...Option) ([]Judged, PipelineConfig, int64) {
		t.Helper()
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
		cfg, gap := s.Resolved()
		return s.Results(), cfg, gap
	}
	config := WithConfig(PipelineConfig{CUs: 5, Stride: 512})
	want, wantCfg, wantGap := run(t, config)
	if len(want) == 0 {
		t.Fatal("reference session judged nothing")
	}

	for _, tc := range []struct {
		name  string
		order func(config, wrap, tel Option) []Option
	}{
		{"config first", func(c, w, tel Option) []Option { return []Option{c, w, tel} }},
		{"config between wrap and telemetry", func(c, w, tel Option) []Option { return []Option{w, c, tel} }},
		{"config between telemetry and wrap", func(c, w, tel Option) []Option { return []Option{tel, c, w} }},
		{"config last", func(c, w, tel Option) []Option { return []Option{w, tel, c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wrapped *countingEngine
			wrap := WithEngineWrap(func(b kernels.Backend) kernels.Backend {
				wrapped = &countingEngine{Backend: b}
				return wrapped
			})
			tel := obs.NewMetricsOnly()
			got, gotCfg, gotGap := run(t, tc.order(config, wrap, WithTelemetry(tel))...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("judgment stream diverged: %d judgments, want %d", len(got), len(want))
			}
			if gotCfg != wantCfg || gotGap != wantGap {
				t.Errorf("Resolved() = %+v, %d; want %+v, %d", gotCfg, gotGap, wantCfg, wantGap)
			}
			if wrapped == nil {
				t.Fatal("EngineWrap wrapper never built")
			}
			if wrapped.calls != len(got) {
				t.Errorf("wrapper saw %d Infer calls for %d judgments", wrapped.calls, len(got))
			}
			if n := tel.Reg.Counter("rtad_judgments_total").Value(); n != int64(len(got)) {
				t.Errorf("rtad_judgments_total = %d, want %d", n, len(got))
			}
		})
	}
}
