package core

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// trainLSTMDeployment builds a small LSTM deployment for tests (reduced
// budgets keep the suite fast).
func trainLSTMDeployment(t *testing.T, bench string) *Deployment {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	cfg := DefaultTrainConfig(p, ModelLSTM)
	cfg.TrainInstr = 1_200_000
	dep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func trainELMDeployment(t *testing.T, bench string) *Deployment {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	cfg := DefaultTrainConfig(p, ModelELM)
	cfg.TrainInstr = 12_000_000
	dep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// detect runs one single-lane detection experiment to completion: the
// attack armed at open with the classic defaults, then Detect.
func detect(t *testing.T, dep *Deployment, cfg PipelineConfig, spec AttackSpec, instr int64) *DetectionResult {
	t.Helper()
	s, err := Open(Deployments{dep}, WithConfig(cfg), WithAttack(spec.Resolve(instr)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Detect(instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	pipe, err := NewPipeline(dep, PipelineConfig{CUs: 5, Stride: 256})
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
	judged := pipe.Judged()
	if len(judged) < 5 {
		t.Fatalf("only %d judged vectors", len(judged))
	}
	if pipe.IGMStats().DecErrors != 0 {
		t.Errorf("PTM decode errors: %d", pipe.IGMStats().DecErrors)
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
	lstm := func() *Deployment {
		p, _ := workload.ByName("400.perlbench")
		cfg := DefaultTrainConfig(p, ModelLSTM)
		cfg.TrainInstr = 1_200_000
		dep, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}()

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

// TestPipelineCausalInvariants replays a full detection run's events
// through the discrete-event scheduler and checks the SoC's causal
// ordering: engine service is serialised (Started/Done monotone), every
// judgment postdates its branch retirement and its vector emission, and
// IRQs delivered through the scheduler arrive in timestamp order.
func TestPipelineCausalInvariants(t *testing.T) {
	dep := trainLSTMDeployment(t, "445.gobmk")
	detect(t, dep, PipelineConfig{CUs: 5, Stride: 512}, AttackSpec{Seed: 6}, 1_500_000)

	pipe, err := NewPipeline(dep, PipelineConfig{CUs: 5, Stride: 512})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := dep.Profile.Generate()
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: pipe})
	if _, err := c.Run(1_500_000); err != nil {
		t.Fatal(err)
	}
	pipe.Flush(sim.CPUClock.Duration(c.Cycles()))
	judged := pipe.Judged()
	if len(judged) < 10 {
		t.Fatalf("only %d judged vectors", len(judged))
	}

	sched := sim.NewScheduler()
	var delivered []sim.Time
	for i := 1; i < len(judged); i++ {
		prev, cur := judged[i-1], judged[i]
		if cur.Rec.Started < prev.Rec.Done {
			t.Fatalf("vector %d started (%v) before %d finished (%v): engine overlap",
				i, cur.Rec.Started, i-1, prev.Rec.Done)
		}
		if cur.Rec.Done <= cur.Vector.At || cur.Rec.Done <= cur.FinalRetire {
			t.Fatalf("vector %d judged before its inputs existed", i)
		}
	}
	for _, j := range judged {
		at := j.Rec.Done
		sched.At(at, func() { delivered = append(delivered, sched.Now()) })
	}
	sched.Run()
	if len(delivered) != len(judged) {
		t.Fatalf("scheduler delivered %d of %d events", len(delivered), len(judged))
	}
	for i := 1; i < len(delivered); i++ {
		if delivered[i] < delivered[i-1] {
			t.Fatal("scheduler delivery out of order")
		}
	}
}
