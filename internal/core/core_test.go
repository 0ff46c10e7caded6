package core

import (
	"sync"
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// trainLSTMDeployment returns a small LSTM deployment for tests (reduced
// budgets keep the suite fast).
func trainLSTMDeployment(t testing.TB, bench string) *Deployment {
	t.Helper()
	return trainedDeployment(t, bench, ModelLSTM, 1_200_000)
}

// trainELMDeployment returns a small ELM deployment for tests.
func trainELMDeployment(t testing.TB, bench string) *Deployment {
	t.Helper()
	return trainedDeployment(t, bench, ModelELM, 12_000_000)
}

// Trained deployments are memoized per (benchmark, kind): Train is
// deterministic and sessions only read a deployment, so the tests that ask
// for the same one share a single training run.
var (
	trainedMu sync.Mutex
	trained   = map[trainedKey]*Deployment{}
)

type trainedKey struct {
	bench string
	kind  ModelKind
}

func trainedDeployment(t testing.TB, bench string, kind ModelKind, instr int64) *Deployment {
	t.Helper()
	trainedMu.Lock()
	defer trainedMu.Unlock()
	key := trainedKey{bench, kind}
	if dep, ok := trained[key]; ok {
		return dep
	}
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	cfg := DefaultTrainConfig(p, kind)
	cfg.TrainInstr = instr
	dep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained[key] = dep
	return dep
}

// detect runs one single-lane detection experiment to completion: the
// attack armed at open with the classic defaults, then Detect.
func detect(t *testing.T, dep *Deployment, cfg PipelineConfig, spec AttackSpec, instr int64, opts ...Option) *DetectionResult {
	t.Helper()
	res, err := runDetect(dep, cfg, spec, instr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDetect is detect reporting its error, for fleet jobs that must not
// fail the test from a worker goroutine.
func runDetect(dep *Deployment, cfg PipelineConfig, spec AttackSpec, instr int64, opts ...Option) (*DetectionResult, error) {
	s, err := Open(Deployments{dep}, append([]Option{WithConfig(cfg), WithAttack(spec.Resolve(instr))}, opts...)...)
	if err != nil {
		return nil, err
	}
	return s.Detect(instr)
}

func TestTrainLSTMDeployment(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	if dep.LSTM == nil || dep.Mapper == nil {
		t.Fatal("incomplete deployment")
	}
	if dep.TrainWindows < 100 {
		t.Errorf("only %d training windows", dep.TrainWindows)
	}
	if dep.Mapper.Size() == 0 || dep.Mapper.Size() > 64 {
		t.Errorf("vocabulary size %d outside (0,64]", dep.Mapper.Size())
	}
	if dep.LSTM.Threshold <= 0 {
		t.Errorf("threshold %g not calibrated", dep.LSTM.Threshold)
	}
	if dep.Pool.Len() == 0 {
		t.Error("no legitimate-event pool recorded")
	}
}

func TestTrainELMDeployment(t *testing.T) {
	dep := trainELMDeployment(t, "400.perlbench")
	if dep.ELM == nil {
		t.Fatal("no ELM model")
	}
	if dep.TrainWindows < 80 {
		t.Errorf("only %d training windows (need >= hidden width)", dep.TrainWindows)
	}
	// The ELM path maps syscalls only: translation must land in [0,32).
	if dep.Translate == nil {
		t.Fatal("no protocol translation configured")
	}
	if got := dep.Translate(1024 + 5); got != 5 {
		t.Errorf("Translate(syscall class 5) = %d", got)
	}
}

func TestLSTMPipelineEndToEnd(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	pipe, err := newPipeline(dep, PipelineConfig{CUs: 5, Stride: 256}, wiring{})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := dep.Profile.Generate()
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: pipe})
	if _, err := c.Run(800_000); err != nil {
		t.Fatal(err)
	}
	pipe.Flush(sim.CPUClock.Duration(c.Cycles()))
	if err := pipe.Err(); err != nil {
		t.Fatal(err)
	}
	judged := pipe.TakeJudged(nil)
	if len(judged) < 5 {
		t.Fatalf("only %d judged vectors", len(judged))
	}
	for i, j := range judged {
		if j.FinalRetire == 0 {
			t.Fatalf("vector %d missing retirement anchor", i)
		}
		if j.Rec.Done <= j.FinalRetire {
			t.Fatalf("vector %d judged before its branch retired", i)
		}
		lat := j.JudgmentLatency()
		if lat <= 0 || lat > 10*sim.Millisecond {
			t.Fatalf("vector %d latency %v implausible", i, lat)
		}
	}
}

func TestDetectionLatencyELMConstantAndFasterOnMLMIAOW(t *testing.T) {
	dep := trainELMDeployment(t, "400.perlbench")
	run := func(cus int) *DetectionResult {
		return detect(t, dep, PipelineConfig{CUs: cus}, AttackSpec{BurstLen: 4096, Seed: 1}, 4_000_000)
	}
	miaow := run(1)
	mlmiaow := run(5)
	if miaow.Latency <= mlmiaow.Latency {
		t.Errorf("MIAOW latency %v not above ML-MIAOW %v", miaow.Latency, mlmiaow.Latency)
	}
	ratio := float64(miaow.Latency) / float64(mlmiaow.Latency)
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("ELM speedup %.2fx outside plausible band (paper 3.29x)", ratio)
	}
	// ELM judgments are effectively constant-time: syscall spacing far
	// exceeds service time, so there is no queueing component.
	if mlmiaow.Dropped != 0 {
		t.Errorf("ELM path dropped %d vectors", mlmiaow.Dropped)
	}
}

func TestDetectionLSTMQueueingAndOverflow(t *testing.T) {
	dep := trainLSTMDeployment(t, "471.omnetpp")
	// Branch-dense omnetpp with a deliberately hot stride: the 1-CU MIAOW
	// engine must overflow the MCM FIFO; the 5-CU ML-MIAOW should drop
	// far less (Fig 8's discussion).
	pcfgM := PipelineConfig{CUs: 1, Stride: 192, FIFODepth: 8}
	pcfgML := PipelineConfig{CUs: 5, Stride: 192, FIFODepth: 8}
	miaow := detect(t, dep, pcfgM, AttackSpec{BurstLen: 6000, Seed: 2}, 2_500_000)
	mlmiaow := detect(t, dep, pcfgML, AttackSpec{BurstLen: 6000, Seed: 2}, 2_500_000)
	if miaow.Dropped == 0 {
		t.Error("MIAOW under omnetpp pressure should overflow the MCM FIFO")
	}
	if mlmiaow.Dropped >= miaow.Dropped {
		t.Errorf("ML-MIAOW drops (%d) not below MIAOW drops (%d)",
			mlmiaow.Dropped, miaow.Dropped)
	}
	if miaow.Latency <= mlmiaow.Latency {
		t.Errorf("MIAOW latency %v should exceed ML-MIAOW %v", miaow.Latency, mlmiaow.Latency)
	}
}

func TestOverheadOrderingAcrossModes(t *testing.T) {
	p, _ := workload.ByName("403.gcc")
	const instr = 400_000
	get := func(mode cpu.Mode) float64 {
		res, err := MeasureOverhead(p, mode, instr)
		if err != nil {
			t.Fatal(err)
		}
		return res.Overhead
	}
	rtad := get(cpu.ModeRTAD)
	sys := get(cpu.ModeSWSys)
	fn := get(cpu.ModeSWFunc)
	all := get(cpu.ModeSWAll)
	if !(rtad < sys && sys < fn && fn < all) {
		t.Errorf("Fig 6 ordering broken: rtad=%.4f sys=%.4f func=%.4f all=%.4f",
			rtad, sys, fn, all)
	}
	if rtad > 0.005 {
		t.Errorf("RTAD overhead %.4f%% not negligible", rtad*100)
	}
	if all < 0.10 {
		t.Errorf("SW_ALL overhead %.1f%% implausibly low", all*100)
	}
}

func TestTransferLatencyShape(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	rtad, n, err := MeasureRTADTransfer(dep, PipelineConfig{CUs: 5, Stride: 64}, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("only %d vectors measured", n)
	}
	sw := SWTransfer(dep.Window())

	// Fig 7 shape: RTAD total well below SW total; the SW copy step
	// dominates SW; the RTAD read (PTM buffering) dominates RTAD; the
	// RTAD vectorise step is exactly 2 fabric cycles.
	if rtad.Total() >= sw.Total() {
		t.Errorf("RTAD transfer %v not below SW %v", rtad.Total(), sw.Total())
	}
	if !(sw.Write > sw.Vectorize && sw.Vectorize > sw.Read) {
		t.Errorf("SW stage ordering wrong: %+v", sw)
	}
	if rtad.Vectorize != 16*sim.Nanosecond {
		t.Errorf("RTAD vectorise = %v, want 16ns", rtad.Vectorize)
	}
	if !(rtad.Read > rtad.Write && rtad.Write > rtad.Vectorize) {
		t.Errorf("RTAD stage ordering wrong: %+v", rtad)
	}
	// Magnitudes within a factor of a few of the paper's numbers.
	if sw.Total() < 10*sim.Microsecond || sw.Total() > 60*sim.Microsecond {
		t.Errorf("SW total %v far from the paper's 20us", sw.Total())
	}
	if rtad.Total() > 15*sim.Microsecond {
		t.Errorf("RTAD total %v far above the paper's 3.62us", rtad.Total())
	}
}

func TestModelKindString(t *testing.T) {
	if ModelELM.String() != "ELM" || ModelLSTM.String() != "LSTM" {
		t.Error("kind names wrong")
	}
}

func TestDualModelDeployment(t *testing.T) {
	elm := trainELMDeployment(t, "400.perlbench")
	lstm := trainLSTMDeployment(t, "400.perlbench")

	const instr = 8_000_000
	s, err := Open(Deployments{elm, lstm}, WithConfig(PipelineConfig{CUs: 5}),
		WithAttack(AttackSpec{Seed: 5}.Resolve(instr)))
	if err != nil {
		t.Fatal(err)
	}
	dual, err := s.DetectDual(instr)
	if err != nil {
		t.Fatal(err)
	}
	if dual.ELM.First == nil || dual.LSTM.First == nil {
		t.Fatal("one model produced no judgment")
	}
	// Both judged the same attack window.
	if dual.ELM.InjectTime != dual.LSTM.InjectTime {
		t.Error("models saw different injection times")
	}
	// Contention: the LSTM's judgment latency under sharing must be at
	// least its solo latency (the ELM's syscall windows steal engine time).
	solo := detect(t, lstm, PipelineConfig{CUs: 5}, AttackSpec{Seed: 5}, instr)
	if dual.LSTM.Latency < solo.Latency {
		t.Errorf("shared-engine LSTM latency %v below solo %v", dual.LSTM.Latency, solo.Latency)
	}
	// Mismatched deployments are rejected.
	if _, err := Open(Deployments{lstm, lstm}); err == nil {
		t.Error("two LSTMs accepted as a dual deployment")
	}
}

// TestPipelineCausalInvariants checks the SoC's causal ordering on every
// lane of a single-lane session and of a dual ELM+LSTM session (one shared
// engine), on both backends: engine service is serialised (each vector
// starts at or after the previous one's Done), every judgment postdates its
// branch retirement and its vector emission, and so Rec.Done strictly
// increases within a lane. Session delivery rests on that last property: it
// appends each lane's judgments in push order, which is then time order.
func TestPipelineCausalInvariants(t *testing.T) {
	lstm := trainLSTMDeployment(t, "445.gobmk")
	elm := trainELMDeployment(t, "445.gobmk")
	detect(t, lstm, PipelineConfig{CUs: 5, Stride: 512}, AttackSpec{Seed: 6}, 1_500_000)
	cases := []struct {
		name  string
		deps  Deployments
		cfg   PipelineConfig
		instr int64
	}{
		{"single", Deployments{lstm}, PipelineConfig{CUs: 5, Stride: 512}, 1_500_000},
		{"dual", Deployments{elm, lstm}, PipelineConfig{CUs: 5}, 6_000_000},
	}
	for _, backend := range []string{kernels.BackendGPU, kernels.BackendNativeCalibrated} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Backend = backend
				s, err := Open(tc.deps, WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Step(tc.instr); err != nil {
					t.Fatal(err)
				}
				if err := s.Drain(); err != nil {
					t.Fatal(err)
				}
				for lane := 0; lane < len(s.lanes); lane++ {
					judged := s.LaneResults(lane)
					if len(judged) < 10 {
						t.Fatalf("lane %d: only %d judged vectors", lane, len(judged))
					}
					for i, cur := range judged {
						if cur.Rec.Done <= cur.Vector.At || cur.Rec.Done <= cur.FinalRetire {
							t.Fatalf("lane %d: vector %d judged before its inputs existed", lane, i)
						}
						if i == 0 {
							continue
						}
						prev := judged[i-1]
						if cur.Rec.Started < prev.Rec.Done {
							t.Fatalf("lane %d: vector %d started (%v) before %d finished (%v): engine overlap",
								lane, i, cur.Rec.Started, i-1, prev.Rec.Done)
						}
						if cur.Rec.Done <= prev.Rec.Done {
							t.Fatalf("lane %d: vector %d done at %v, not after %d (%v)",
								lane, i, cur.Rec.Done, i-1, prev.Rec.Done)
						}
					}
				}
			})
		}
	}
}
