// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) from the simulated RTAD system: Table I (synthesis),
// Table II (trimming), Fig 6 (host overhead), Fig 7 (transfer latency) and
// Fig 8 (detection latency). Each experiment returns a structured result
// plus a text rendering; the cmd/experiments binary and the repository's
// benchmark suite both drive this package, and EXPERIMENTS.md records its
// output against the published numbers.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/gpu"
	"rtad/internal/kernels"
	"rtad/internal/ml"
	"rtad/internal/obs"
	"rtad/internal/sim"
	"rtad/internal/synth"
	"rtad/internal/trim"
	"rtad/internal/workload"
)

// Options tunes experiment budgets. Zero values take defaults sized to
// finish the full suite in a few minutes on a laptop.
type Options struct {
	// Benchmarks restricts the suite (short or full names); empty = all 12.
	Benchmarks []string
	// OverheadInstr is the per-run budget of Fig 6.
	OverheadInstr int64
	// DetectInstr is the per-run budget of Fig 8 detection runs.
	DetectInstr int64
	// TrainELMInstr / TrainLSTMInstr override the training budgets.
	TrainELMInstr  int64
	TrainLSTMInstr int64
	// Workers sizes the session fleet the grid experiments (Fig 6, Fig 8)
	// fan out over; <= 0 uses one worker per available CPU. Results are
	// bit-identical at any width — each cell is an independent session.
	Workers int
	// Backend selects the inference backend for the detection pipelines
	// (Fig 7, Fig 8): kernels.BackendGPU or BackendNativeCalibrated; empty
	// picks kernels.DefaultBackend. Judgment streams — and therefore every
	// reported number — are bit-identical across backends; only the wall
	// clock changes.
	Backend string
	// Calibration is the shared cycle-cost table for the native backend.
	// Nil with BackendNativeCalibrated gets one table created in
	// withDefaults, shared by every pipeline of the run.
	Calibration *kernels.Calibration
	// Telemetry, when non-nil, collects metrics across the grid runs: each
	// Fig 8 cell records into a private registry and the registries merge
	// into Telemetry.Reg serially in cell order, so the aggregate — like the
	// results — is bit-identical at any worker count. Nil (the default)
	// leaves every run un-instrumented and the output byte-identical to an
	// un-instrumented build.
	Telemetry *obs.Telemetry

	// stagedTrace runs every detection pipeline on the staged byte/word
	// trace-delivery reference path instead of the fused fast path. Only
	// the fused-vs-staged equivalence tests set it.
	stagedTrace bool
}

// fleet builds the run fleet for the configured width.
func (o Options) fleet() *core.Fleet { return core.NewFleet(o.Workers) }

func (o Options) profiles() ([]workload.Profile, error) {
	if len(o.Benchmarks) == 0 {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, name := range o.Benchmarks {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

func (o Options) withDefaults() Options {
	if o.OverheadInstr <= 0 {
		o.OverheadInstr = 2_000_000
	}
	if o.DetectInstr <= 0 {
		o.DetectInstr = 6_000_000
	}
	if o.Backend == kernels.BackendNativeCalibrated && o.Calibration == nil {
		o.Calibration = kernels.NewCalibration()
	}
	return o
}

// pipelineConfig builds a detection-pipeline config carrying the options'
// backend choice.
func (o Options) pipelineConfig(cus int, tel *obs.Telemetry) core.PipelineConfig {
	return core.PipelineConfig{
		CUs:         cus,
		Telemetry:   tel,
		Backend:     o.Backend,
		Calibration: o.Calibration,
		StagedTrace: o.stagedTrace,
	}
}

// trainModels builds the ELM+LSTM model pair used by the trimming and
// synthesis experiments (any benchmark's models exercise the same blocks).
func trainModels(o Options) (*ml.ELM, *ml.LSTM, error) {
	p, _ := workload.ByName("458.sjeng")
	ecfg := core.DefaultTrainConfig(p, core.ModelELM)
	if o.TrainELMInstr > 0 {
		ecfg.TrainInstr = o.TrainELMInstr
	}
	edep, err := core.Train(ecfg)
	if err != nil {
		return nil, nil, err
	}
	lcfg := core.DefaultTrainConfig(p, core.ModelLSTM)
	if o.TrainLSTMInstr > 0 {
		lcfg.TrainInstr = o.TrainLSTMInstr
	}
	ldep, err := core.Train(lcfg)
	if err != nil {
		return nil, nil, err
	}
	return edep.ELM, ldep.LSTM, nil
}

// ---------------------------------------------------------------- Table II

// TableIIResult is the trimming comparison.
type TableIIResult struct {
	Trim *trim.Result
}

// TableII runs the full trimming flow on the deployed models.
func TableII(o Options) (*TableIIResult, error) {
	o = o.withDefaults()
	elm, lstm, err := trainModels(o)
	if err != nil {
		return nil, err
	}
	res, err := trim.Run(trim.StandardWorkloads(elm, lstm, 10))
	if err != nil {
		return nil, err
	}
	return &TableIIResult{Trim: res}, nil
}

// String renders the comparison in the paper's layout.
func (r *TableIIResult) String() string {
	var b strings.Builder
	t := r.Trim
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s\n", "", "LUTs", "FFs", "Sum", "Area")
	fmt.Fprintf(&b, "%-16s %8d %8d %8d %8s\n", "MIAOW", t.MIAOW.LUTs, t.MIAOW.FFs, t.MIAOW.Sum(), "-")
	fmt.Fprintf(&b, "%-16s %8d %8d %8d %7.0f%%\n", "MIAOW2.0", t.MIAOW20.LUTs, t.MIAOW20.FFs, t.MIAOW20.Sum(), -100*t.MIAOW20.Reduction(t.MIAOW))
	fmt.Fprintf(&b, "%-16s %8d %8d %8d %7.0f%%\n", "ML-MIAOW (ours)", t.MLMIAOW.LUTs, t.MLMIAOW.FFs, t.MLMIAOW.Sum(), -100*t.MLMIAOW.Reduction(t.MIAOW))
	fmt.Fprintf(&b, "perf/area vs MIAOW2.0: %.1fx (paper: 3.2x); trimmed blocks: %d; verified: %v\n",
		t.PerfPerAreaVsMIAOW20(), len(t.Trimmed), t.Verified)
	return b.String()
}

// ----------------------------------------------------------------- Table I

// TableIResult wraps the synthesis table.
type TableIResult struct {
	Table synth.TableI
	Keep  gpu.CoverageSet
}

// TableI runs trimming then the synthesis model.
func TableI(o Options) (*TableIResult, error) {
	t2, err := TableII(o)
	if err != nil {
		return nil, err
	}
	keep := t2.Trim.Coverage
	return &TableIResult{Table: synth.BuildTableI(&keep), Keep: keep}, nil
}

// String renders Table I.
func (r *TableIResult) String() string { return r.Table.String() }

// ------------------------------------------------------------------- Fig 6

// Fig6Modes lists the collection configurations in the figure's order.
var Fig6Modes = []cpu.Mode{cpu.ModeRTAD, cpu.ModeSWSys, cpu.ModeSWFunc, cpu.ModeSWAll}

// Fig6Row is one benchmark's bars.
type Fig6Row struct {
	Benchmark string
	Overhead  map[cpu.Mode]float64
}

// Fig6Result is the overhead study.
type Fig6Result struct {
	Rows    []Fig6Row
	Geomean map[cpu.Mode]float64
}

// Fig6 measures the execution-time overhead of every collection mode over
// the baseline for each benchmark.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.withDefaults()
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	// One fleet job per benchmark: each job measures all four collection
	// modes for its profile. Rows land at their profile's index, so output
	// order — and, below, floating-point accumulation order — is identical
	// to a serial run at any worker count.
	rows := make([]Fig6Row, len(profiles))
	err = o.fleet().Run(len(profiles), func(i int) error {
		p := profiles[i]
		row := Fig6Row{Benchmark: p.Name, Overhead: map[cpu.Mode]float64{}}
		for _, mode := range Fig6Modes {
			m, err := core.MeasureOverhead(p, mode, o.OverheadInstr)
			if err != nil {
				return err
			}
			row.Overhead[mode] = m.Overhead
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Rows: rows, Geomean: map[cpu.Mode]float64{}}
	logsum := map[cpu.Mode]float64{}
	for _, row := range rows {
		for _, mode := range Fig6Modes {
			// Geomean over slowdown factors (1+overhead), as the paper's
			// "geometric mean" of normalized execution times.
			logsum[mode] += math.Log1p(row.Overhead[mode])
		}
	}
	for _, mode := range Fig6Modes {
		res.Geomean[mode] = math.Expm1(logsum[mode] / float64(len(profiles)))
	}
	return res, nil
}

// String renders the per-benchmark overhead table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "benchmark")
	for _, m := range Fig6Modes {
		fmt.Fprintf(&b, " %9s", m)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s", row.Benchmark)
		for _, m := range Fig6Modes {
			fmt.Fprintf(&b, " %8.3f%%", row.Overhead[m]*100)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-16s", "geomean")
	for _, m := range Fig6Modes {
		fmt.Fprintf(&b, " %8.3f%%", r.Geomean[m]*100)
	}
	fmt.Fprintf(&b, "\n(paper geomeans: RTAD 0.052%%, SW_SYS 0.6%%, SW_FUNC 10.7%%, SW_ALL 43.4%%)\n")
	return b.String()
}

// ------------------------------------------------------------------- Fig 7

// Fig7Result is the data-transfer-latency comparison.
type Fig7Result struct {
	Benchmark string
	SW        core.TransferBreakdown
	RTAD      core.TransferBreakdown
	Vectors   int
}

// Fig7 measures the SW and RTAD delivery paths on one benchmark.
func Fig7(o Options, bench string) (*Fig7Result, error) {
	o = o.withDefaults()
	p, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	cfg := core.DefaultTrainConfig(p, core.ModelLSTM)
	if o.TrainLSTMInstr > 0 {
		cfg.TrainInstr = o.TrainLSTMInstr
	}
	dep, err := core.Train(cfg)
	if err != nil {
		return nil, err
	}
	pcfg := o.pipelineConfig(5, nil)
	pcfg.Stride = 64
	rtad, n, err := core.MeasureRTADTransfer(dep, pcfg, o.OverheadInstr)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Benchmark: p.Name,
		SW:        core.SWTransfer(dep.Window()),
		RTAD:      rtad,
		Vectors:   n,
	}, nil
}

// String renders the stage breakdown.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "data transfer latency on %s (%d vectors averaged)\n", r.Benchmark, r.Vectors)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n", "", "(1) read", "(2) vectorize", "(3) write", "total")
	row := func(name string, t core.TransferBreakdown) {
		fmt.Fprintf(&b, "%-6s %12v %12v %12v %12v\n", name, t.Read, t.Vectorize, t.Write, t.Total())
	}
	row("SW", r.SW)
	row("RTAD", r.RTAD)
	fmt.Fprintf(&b, "(paper: SW 20.0us total — copy 11.5us, vectorize 7.38us; RTAD 3.62us total — vectorize 16ns, write 0.78us)\n")
	return b.String()
}

// ------------------------------------------------------------------- Fig 8

// Fig8Row is one benchmark × model measurement pair.
type Fig8Row struct {
	Benchmark string
	Kind      core.ModelKind
	MIAOW     sim.Time // 1-CU detection latency
	MLMIAOW   sim.Time // 5-CU detection latency
	Speedup   float64
	DroppedM  int64 // MCM FIFO drops under MIAOW
	DroppedML int64 // drops under ML-MIAOW
	Detected  bool  // anomaly IRQ raised on the ML-MIAOW run
}

// Fig8Result is the detection-latency study.
type Fig8Result struct {
	ELM  []Fig8Row
	LSTM []Fig8Row
	// MeanSpeedup is the average latency improvement of ML-MIAOW over
	// MIAOW across every row (the paper's 2.75x headline).
	MeanSpeedup float64
}

// Fig8 trains a deployment per benchmark and model, injects the attack, and
// measures the judgment latency under MIAOW (1 CU) and ML-MIAOW (5 CUs).
func Fig8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	// The benchmark × model grid in kind-major order, one fleet job per
	// cell. Each job trains its own deployment and runs both engine
	// configurations through independent sessions, so cells share nothing
	// and the grid parallelises freely; rows land at their cell's index,
	// keeping output and mean-speedup accumulation order identical to a
	// serial run.
	type cell struct {
		kind core.ModelKind
		p    workload.Profile
	}
	var cells []cell
	for _, kind := range []core.ModelKind{core.ModelELM, core.ModelLSTM} {
		for _, p := range profiles {
			cells = append(cells, cell{kind: kind, p: p})
		}
	}
	rows := make([]Fig8Row, len(cells))
	var regs []*obs.Registry
	if o.Telemetry != nil && o.Telemetry.Reg != nil {
		regs = make([]*obs.Registry, len(cells))
	}
	err = o.fleet().Run(len(cells), func(i int) error {
		kind, p := cells[i].kind, cells[i].p
		var jt *obs.Telemetry
		if regs != nil {
			jt = obs.NewMetricsOnly()
			regs[i] = jt.Reg
		}
		cfg := core.DefaultTrainConfig(p, kind)
		if kind == core.ModelELM && o.TrainELMInstr > 0 {
			cfg.TrainInstr = o.TrainELMInstr
		}
		if kind == core.ModelLSTM && o.TrainLSTMInstr > 0 {
			cfg.TrainInstr = o.TrainLSTMInstr
		}
		dep, err := core.Train(cfg)
		if err != nil {
			return fmt.Errorf("fig8 %s/%v: %w", p.Name, kind, err)
		}
		aspec := core.AttackSpec{Seed: p.Seed}
		detInstr := o.DetectInstr
		if kind == core.ModelELM {
			// Syscall windows are sparse; give the run room for
			// several post-injection judgments.
			detInstr *= 2
		}
		detect := func(cus int, tel *obs.Telemetry) (*core.DetectionResult, error) {
			s, err := core.Open(core.Deployments{dep},
				core.WithConfig(o.pipelineConfig(cus, tel)),
				core.WithAttack(aspec.Resolve(detInstr)))
			if err != nil {
				return nil, err
			}
			return s.Detect(detInstr)
		}
		m1, err := detect(1, jt.Lane("miaow"))
		if err != nil {
			return fmt.Errorf("fig8 %s/%v MIAOW: %w", p.Name, kind, err)
		}
		m5, err := detect(5, jt.Lane("mlmiaow"))
		if err != nil {
			return fmt.Errorf("fig8 %s/%v ML-MIAOW: %w", p.Name, kind, err)
		}
		rows[i] = Fig8Row{
			Benchmark: p.Name, Kind: kind,
			MIAOW: m1.Latency, MLMIAOW: m5.Latency,
			Speedup:  float64(m1.Latency) / float64(m5.Latency),
			DroppedM: m1.Dropped, DroppedML: m5.Dropped,
			Detected: m5.Detected,
		}
		return nil
	})
	// Serial, cell-order merge: the aggregate registry is independent of how
	// the pool interleaved the cells.
	if regs != nil {
		for _, r := range regs {
			if r != nil {
				o.Telemetry.Reg.Merge(r)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	var sum float64
	for _, row := range rows {
		sum += row.Speedup
		if row.Kind == core.ModelELM {
			res.ELM = append(res.ELM, row)
		} else {
			res.LSTM = append(res.LSTM, row)
		}
	}
	res.MeanSpeedup = sum / float64(len(rows))
	return res, nil
}

// MeanLatency averages a row set's latencies for one engine.
func MeanLatency(rows []Fig8Row, mlmiaow bool) sim.Time {
	if len(rows) == 0 {
		return 0
	}
	var sum sim.Time
	for _, r := range rows {
		if mlmiaow {
			sum += r.MLMIAOW
		} else {
			sum += r.MIAOW
		}
	}
	return sum / sim.Time(len(rows))
}

// LatencySpread reports min and max ML-MIAOW latencies of a row set, the
// across-benchmark variability Fig 8 discusses.
func LatencySpread(rows []Fig8Row) (lo, hi sim.Time) {
	if len(rows) == 0 {
		return 0, 0
	}
	lats := make([]sim.Time, len(rows))
	for i, r := range rows {
		lats[i] = r.MLMIAOW
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[0], lats[len(lats)-1]
}

// String renders the per-benchmark latency table.
func (r *Fig8Result) String() string {
	var b strings.Builder
	section := func(name string, rows []Fig8Row) {
		fmt.Fprintf(&b, "%s detection latency (MIAOW -> ML-MIAOW)\n", name)
		fmt.Fprintf(&b, "%-16s %12s %12s %8s %18s %9s\n", "benchmark", "MIAOW", "ML-MIAOW", "speedup", "drops (M -> ML)", "detected")
		for _, row := range rows {
			fmt.Fprintf(&b, "%-16s %12v %12v %7.2fx %8d -> %7d %9v\n",
				row.Benchmark, row.MIAOW, row.MLMIAOW, row.Speedup,
				row.DroppedM, row.DroppedML, row.Detected)
		}
		fmt.Fprintf(&b, "%-16s %12v %12v\n", "mean", MeanLatency(rows, false), MeanLatency(rows, true))
	}
	section("ELM", r.ELM)
	section("LSTM", r.LSTM)
	fmt.Fprintf(&b, "mean speedup: %.2fx (paper: 2.75x; ELM 13.83->4.21us, LSTM 53.16->23.98us)\n", r.MeanSpeedup)
	return b.String()
}
