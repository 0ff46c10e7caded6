// Package rtad's benchmark harness regenerates every table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTableI   — synthesized results of RTAD (Table I)
//	BenchmarkTableII  — trimming result of ML-MIAOW (Table II)
//	BenchmarkFig6     — performance overhead of RTAD (Fig 6)
//	BenchmarkFig7     — data transfer latency of RTAD (Fig 7)
//	BenchmarkFig8     — latencies of anomaly detection (Fig 8)
//
// Each prints the regenerated rows/series once and reports the headline
// quantities as benchmark metrics. BenchmarkFleetDetectionGrid measures
// the core.Fleet speedup on a fixed detection-job grid (width 1 vs one
// worker per CPU). Ablation benchmarks then sweep the
// design choices DESIGN.md calls out (CU count, IGM stride, MCM FIFO depth,
// PTM drain threshold), and micro-benchmarks measure the hot simulation
// paths themselves.
package rtad

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/experiments"
	"rtad/internal/gpu"
	"rtad/internal/kernels"
	"rtad/internal/ml"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

var printOnce sync.Map

// show prints an experiment rendering once per benchmark name.
func show(name, s string) {
	if _, done := printOnce.LoadOrStore(name, true); !done {
		fmt.Printf("\n==== %s ====\n%s\n", name, s)
	}
}

func BenchmarkTableII(b *testing.B) {
	var last *experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	show("Table II — trimming result of ML-MIAOW", last.String())
	b.ReportMetric(100*last.Trim.MLMIAOW.Reduction(last.Trim.MIAOW), "%trim-mlmiaow")
	b.ReportMetric(100*last.Trim.MIAOW20.Reduction(last.Trim.MIAOW), "%trim-miaow2.0")
	b.ReportMetric(last.Trim.PerfPerAreaVsMIAOW20(), "x-perf/area")
}

func BenchmarkTableI(b *testing.B) {
	var last *experiments.TableIResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	show("Table I — synthesized results of RTAD", last.String())
	b.ReportMetric(float64(last.Table.Total.LUTs), "LUTs")
	b.ReportMetric(float64(last.Table.Total.Gates), "gates")
}

func BenchmarkFig6(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	show("Fig 6 — performance overhead of RTAD", last.String())
	b.ReportMetric(100*last.Geomean[cpu.ModeRTAD], "%rtad")
	b.ReportMetric(100*last.Geomean[cpu.ModeSWAll], "%sw_all")
}

func BenchmarkFig7(b *testing.B) {
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Options{}, "401.bzip2")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	show("Fig 7 — data transfer latency of RTAD", last.String())
	b.ReportMetric(last.SW.Total().Microseconds(), "us-sw")
	b.ReportMetric(last.RTAD.Total().Microseconds(), "us-rtad")
}

func BenchmarkFig8(b *testing.B) {
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	show("Fig 8 — latencies of anomaly detection", last.String())
	b.ReportMetric(last.MeanSpeedup, "x-mean-speedup")
	b.ReportMetric(experiments.MeanLatency(last.ELM, true).Microseconds(), "us-elm-mlmiaow")
	b.ReportMetric(experiments.MeanLatency(last.LSTM, true).Microseconds(), "us-lstm-mlmiaow")
}

// ------------------------------------------------------------- ablations

// ablationDeployment trains one LSTM deployment shared by the sweeps.
var (
	ablDep  *core.Deployment
	ablOnce sync.Once
	ablErr  error
)

func lstmDeployment(b *testing.B) *core.Deployment {
	b.Helper()
	ablOnce.Do(func() {
		p, _ := workload.ByName("458.sjeng")
		cfg := core.DefaultTrainConfig(p, core.ModelLSTM)
		ablDep, ablErr = core.Train(cfg)
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablDep
}

// detect runs one detection experiment to completion: the attack armed at
// open with the classic defaults, then Detect.
func detect(b *testing.B, dep *core.Deployment, cfg core.PipelineConfig, spec core.AttackSpec, instr int64) *core.DetectionResult {
	b.Helper()
	s, err := core.Open(core.Deployments{dep}, core.WithConfig(cfg), core.WithAttack(spec.Resolve(instr)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Detect(instr)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationCUs sweeps the compute-unit count up to core.MaxCUs:
// the area saved by trimming buys CUs, and this shows what each CU is
// worth in judgment latency (no kernel dispatches more wavefronts than
// MaxCUs, so more CUs could not help).
func BenchmarkAblationCUs(b *testing.B) {
	dep := lstmDeployment(b)
	for _, cus := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("cus=%d", cus), func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				lat = detect(b, dep, core.PipelineConfig{CUs: cus}, core.AttackSpec{Seed: 3}, 4_000_000).Latency
			}
			b.ReportMetric(lat.Microseconds(), "us-latency")
		})
	}
}

// BenchmarkAblationStride sweeps the IGM emission stride: small strides
// oversubscribe the engine (queueing, then FIFO loss), large strides
// sample behaviour more coarsely.
func BenchmarkAblationStride(b *testing.B) {
	dep := lstmDeployment(b)
	for _, stride := range []int{512, 1024, 2048, 3840, 8192} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			var lat sim.Time
			var drops int64
			for i := 0; i < b.N; i++ {
				res := detect(b, dep, core.PipelineConfig{CUs: 5, Stride: stride},
					core.AttackSpec{Seed: 3}, 4_000_000)
				lat, drops = res.Latency, res.Dropped
			}
			b.ReportMetric(lat.Microseconds(), "us-latency")
			b.ReportMetric(float64(drops), "drops")
		})
	}
}

// BenchmarkAblationFIFODepth sweeps the MCM vector FIFO: the paper's
// overflow discussion (Fig 8) is a statement about this buffer.
func BenchmarkAblationFIFODepth(b *testing.B) {
	dep := lstmDeployment(b)
	for _, depth := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var drops int64
			for i := 0; i < b.N; i++ {
				drops = detect(b, dep, core.PipelineConfig{CUs: 1, Stride: 1024, FIFODepth: depth},
					core.AttackSpec{Seed: 3}, 3_000_000).Dropped
			}
			b.ReportMetric(float64(drops), "drops")
		})
	}
}

// BenchmarkAblationDrainThreshold sweeps the PTM formatter hold-back, the
// dominant term of Fig 7's RTAD step (1).
func BenchmarkAblationDrainThreshold(b *testing.B) {
	dep := lstmDeployment(b)
	for _, thr := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("bytes=%d", thr), func(b *testing.B) {
			var read sim.Time
			for i := 0; i < b.N; i++ {
				tb, _, err := core.MeasureRTADTransfer(dep,
					core.PipelineConfig{CUs: 5, Stride: 64, DrainThreshold: thr}, 600_000)
				if err != nil {
					b.Fatal(err)
				}
				read = tb.Read
			}
			b.ReportMetric(read.Microseconds(), "us-read-stage")
		})
	}
}

// BenchmarkFleetDetectionGrid runs a fixed detection-job grid through
// core.Fleet at width 1 and at one worker per CPU: the wall-clock ratio is
// the fleet speedup (results are bit-identical at any width, so only time
// differs). This is the concurrency payoff behind the parallel Fig 6/Fig 8
// paths.
func BenchmarkFleetDetectionGrid(b *testing.B) {
	dep := lstmDeployment(b)
	var cfgs []core.PipelineConfig
	for _, cus := range []int{1, 5} {
		for _, stride := range []int{512, 1024, 3840} {
			cfgs = append(cfgs, core.PipelineConfig{CUs: cus, Stride: stride})
		}
	}
	const instr = 2_000_000
	attack := core.AttackSpec{Seed: 3}.Resolve(instr)
	widths := []int{1, runtime.GOMAXPROCS(0)}
	if widths[1] == 1 {
		widths = widths[:1] // single-CPU host: widths coincide
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fleet := core.NewFleet(workers)
			defer fleet.Close()
			results := make([]*core.DetectionResult, len(cfgs))
			for i := 0; i < b.N; i++ {
				clear(results)
				err := fleet.Run(len(cfgs), func(j int) error {
					s, err := core.Open(core.Deployments{dep},
						core.WithConfig(cfgs[j]), core.WithAttack(attack))
					if err != nil {
						return err
					}
					results[j], err = s.Detect(instr)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				for j, res := range results {
					if res == nil {
						b.Fatalf("job %d produced no result", j)
					}
				}
			}
			b.ReportMetric(float64(len(cfgs)), "jobs/op")
		})
	}
}

// -------------------------------------------------------- micro-benchmarks

func BenchmarkCPUSimulation(b *testing.B) {
	p, _ := workload.ByName("458.sjeng")
	prog, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	c := cpu.New(prog, cpu.Config{})
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(1000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "instrs/op")
}

var (
	benchELM     *ml.ELM
	benchELMOnce sync.Once
	benchELMErr  error
)

func trainedELMModel(b *testing.B) *ml.ELM {
	b.Helper()
	benchELMOnce.Do(func() {
		cfg := ml.DefaultELMConfig()
		rng := rand.New(rand.NewSource(4))
		windows := make([][]int32, 400)
		for i := range windows {
			w := make([]int32, cfg.Window)
			for j := range w {
				w[j] = int32(rng.Intn(cfg.Vocab))
			}
			windows[i] = w
		}
		benchELM, benchELMErr = ml.TrainELM(cfg, windows)
	})
	if benchELMErr != nil {
		b.Fatal(benchELMErr)
	}
	return benchELM
}

func trainedELMEngine(b *testing.B, cus int) *kernels.ELMEngine {
	b.Helper()
	eng, err := kernels.NewELMEngine(gpu.NewDevice(kernels.ELMMemEnd, cus), trainedELMModel(b))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkELMInferenceGPU(b *testing.B) {
	eng := trainedELMEngine(b, 5)
	w := make([]int32, kernels.ELMWindow)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, c, err := eng.Infer(w)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "gpu-cycles")
	b.ReportMetric(sim.GPUClock.Duration(cycles).Microseconds(), "us-sim-latency")
}

// ------------------------------------------------------ backend comparison

// benchBackends are the inference backends, fidelity-identical by
// construction (judgment streams are bit-identical; see
// internal/kernels/backend_test.go), so these benchmarks measure pure
// wall-clock cost of the same computation.
var benchBackends = []string{kernels.BackendGPU, kernels.BackendNativeCalibrated}

// BenchmarkBackendELMInference times a single steady-state ELM judgment on
// each backend, after one warm-up call.
func BenchmarkBackendELMInference(b *testing.B) {
	model := trainedELMModel(b)
	w := make([]int32, kernels.ELMWindow)
	for _, name := range benchBackends {
		b.Run(name, func(b *testing.B) {
			eng, err := kernels.NewBackend(name,
				kernels.Spec{Dev: gpu.NewDevice(kernels.ELMMemEnd, 5), ELM: model})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.Infer(w); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Infer(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendLSTMInference is the LSTM counterpart (recurrent state,
// heavier kernel — the backend gap is widest here).
func BenchmarkBackendLSTMInference(b *testing.B) {
	model := lstmDeployment(b).LSTM
	w := make([]int32, kernels.LSTMWindow)
	for _, name := range benchBackends {
		b.Run(name, func(b *testing.B) {
			eng, err := kernels.NewBackend(name,
				kernels.Spec{Dev: gpu.NewDevice(kernels.LSTMMemEnd, 5), LSTM: model})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.Infer(w); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Infer(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	benchELMDep     *core.Deployment
	benchELMDepOnce sync.Once
	benchELMDepErr  error
)

func elmDeployment(b *testing.B) *core.Deployment {
	b.Helper()
	benchELMDepOnce.Do(func() {
		p, _ := workload.ByName("400.perlbench")
		cfg := core.DefaultTrainConfig(p, core.ModelELM)
		benchELMDep, benchELMDepErr = core.Train(cfg)
	})
	if benchELMDepErr != nil {
		b.Fatal(benchELMDepErr)
	}
	return benchELMDep
}

// BenchmarkBackendFig8Grid runs the Fig 8 detection grid — both models ×
// both engine widths — serially (the -workers 1 configuration) on each
// backend over pre-trained deployments. Training and victim simulation are
// backend-invariant, so deployments are built once outside the timed
// region and the wall-clock ratio between sub-benchmarks isolates the
// inference backend. One calibration table spans the whole grid: the
// calibrated backend pays its GPU pass once per (model, CUs) shape and
// replays it for every remaining cell.
func BenchmarkBackendFig8Grid(b *testing.B) {
	elm := elmDeployment(b)
	lstm := lstmDeployment(b)
	cells := []struct {
		dep    *core.Deployment
		attack core.AttackSpec
	}{
		{elm, core.AttackSpec{BurstLen: 4096, Seed: 1}},
		{lstm, core.AttackSpec{Seed: 3}},
	}
	for _, name := range benchBackends {
		b.Run(name, func(b *testing.B) {
			calib := kernels.NewCalibration()
			for i := 0; i < b.N; i++ {
				for _, cell := range cells {
					for _, cus := range []int{1, 5} {
						cfg := core.PipelineConfig{CUs: cus, Backend: name, Calibration: calib}
						detect(b, cell.dep, cfg, cell.attack, 4_000_000)
					}
				}
			}
			b.ReportMetric(float64(2*len(cells)), "cells/op")
		})
	}
}

// BenchmarkBackendFig8GridSaturated is the same grid in Fig 8's overflow
// regime: a hot IGM stride with an MCM FIFO deep enough that nothing drops,
// so the engine must judge every emitted vector (most of them during the
// post-run drain). This is the engine-bound configuration — judgments per
// cell rise from dozens to thousands — and where the calibrated native
// backend pays off: the cycle-accurate interpreter simulates every kernel
// launch, the native backend replays recorded cycle costs around a direct
// fixed-point evaluation. Judgment streams stay bit-identical; expect well
// over 5x wall-clock between the gpu and native-calibrated sub-benchmarks.
func BenchmarkBackendFig8GridSaturated(b *testing.B) {
	elm := elmDeployment(b)
	lstm := lstmDeployment(b)
	cells := []struct {
		dep    *core.Deployment
		stride int
		attack core.AttackSpec
		instr  int64
	}{
		{elm, 0, core.AttackSpec{BurstLen: 4096, Seed: 1}, 4_000_000},
		{lstm, 24, core.AttackSpec{Seed: 3}, 3_000_000},
	}
	for _, name := range benchBackends {
		b.Run(name, func(b *testing.B) {
			calib := kernels.NewCalibration()
			var judged int
			for i := 0; i < b.N; i++ {
				judged = 0
				for _, cell := range cells {
					for _, cus := range []int{1, 5} {
						cfg := core.PipelineConfig{
							CUs: cus, Stride: cell.stride, FIFODepth: 1 << 16,
							Backend: name, Calibration: calib,
						}
						judged += detect(b, cell.dep, cfg, cell.attack, cell.instr).Judged
					}
				}
			}
			b.ReportMetric(float64(judged), "judged/op")
		})
	}
}

// BenchmarkTrainDeployment trains the 400.perlbench ELM deployment with the
// evaluation budgets (core.DefaultTrainConfig) and reports what keeping and
// shipping it costs: what Train allocates, the heap the deployment retains
// after a collection, its saved size, and the time to load that file back.
func BenchmarkTrainDeployment(b *testing.B) {
	p, _ := workload.ByName("400.perlbench")
	var alloc, retained, size int64
	var load time.Duration
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		dep, err := core.Train(core.DefaultTrainConfig(p, core.ModelELM))
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		alloc = int64(after.TotalAlloc - before.TotalAlloc)
		retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		var buf bytes.Buffer
		if err := dep.Save(&buf); err != nil {
			b.Fatal(err)
		}
		size = int64(buf.Len())
		start := time.Now()
		if _, err := core.LoadDeployment(&buf); err != nil {
			b.Fatal(err)
		}
		load = time.Since(start)
		runtime.KeepAlive(dep)
	}
	b.ReportMetric(float64(alloc)/1e6, "train_alloc_MB")
	b.ReportMetric(float64(retained)/1e6, "retained_MB")
	b.ReportMetric(float64(size)/1e6, "dep_MB")
	b.ReportMetric(load.Seconds(), "load_s")
}

func BenchmarkLSTMTrainingStep(b *testing.B) {
	cfg := ml.DefaultLSTMConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(5))
	windows := make([][]int32, cfg.Truncate*4)
	for i := range windows {
		w := make([]int32, cfg.Window)
		for j := range w {
			w[j] = int32(rng.Intn(cfg.Vocab))
		}
		windows[i] = w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainLSTM(cfg, windows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	p, _ := workload.ByName("403.gcc")
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationELMvsMLP measures the paper's "lightweight" claim: the
// ELM's closed-form ridge solve against epochs of MLP backprop at the same
// topology and comparable accuracy.
func BenchmarkAblationELMvsMLP(b *testing.B) {
	cfg := ml.DefaultELMConfig()
	rng := rand.New(rand.NewSource(8))
	mk := func(n int, seed int64) [][]int32 {
		r := rand.New(rand.NewSource(seed))
		succ := make([][]int32, cfg.Vocab)
		for c := range succ {
			succ[c] = []int32{int32((c + 1) % cfg.Vocab), int32((c + 1) % cfg.Vocab), int32(r.Intn(cfg.Vocab))}
		}
		cur := int32(0)
		stream := make([]int32, n+cfg.Window)
		for i := range stream {
			stream[i] = cur
			cur = succ[cur][r.Intn(3)]
		}
		out := make([][]int32, n)
		for i := range out {
			out[i] = stream[i : i+cfg.Window]
		}
		return out
	}
	_ = rng
	train := mk(3000, 1)
	test := mk(600, 2)

	b.Run("elm-ridge", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := ml.TrainELM(cfg, train)
			if err != nil {
				b.Fatal(err)
			}
			acc = m.Accuracy(test)
		}
		b.ReportMetric(acc, "top1-accuracy")
	})
	b.Run("mlp-backprop", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := ml.TrainMLP(cfg, train, 8, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			acc = m.Accuracy(test)
		}
		b.ReportMetric(acc, "top1-accuracy")
	})
}

// BenchmarkAblationAttackStyle contrasts the paper's random-insertion
// emulation with mimicry segment replay on the same deployment: identical
// hardware latency, very different detectability.
func BenchmarkAblationAttackStyle(b *testing.B) {
	dep := lstmDeployment(b)
	for _, tc := range []struct {
		name    string
		mimicry bool
	}{{"random-insertion", false}, {"mimicry-replay", true}} {
		b.Run(tc.name, func(b *testing.B) {
			detected := 0
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				res := detect(b, dep, core.PipelineConfig{CUs: 5},
					core.AttackSpec{Seed: int64(i + 1), Mimicry: tc.mimicry}, 4_000_000)
				if res.Detected {
					detected++
				}
				lat = res.Latency
			}
			b.ReportMetric(float64(detected)/float64(b.N), "detect-rate")
			b.ReportMetric(lat.Microseconds(), "us-latency")
		})
	}
}
