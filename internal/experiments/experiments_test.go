package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// quickOpts keeps unit-test budgets small; the full budgets run in the
// benchmark harness (bench_test.go) and cmd/experiments.
func quickOpts() Options {
	return Options{
		Benchmarks:     []string{"458.sjeng", "471.omnetpp", "456.hmmer"},
		OverheadInstr:  400_000,
		DetectInstr:    2_000_000,
		TrainELMInstr:  10_000_000,
		TrainLSTMInstr: 1_200_000,
	}
}

func TestTableIIExperiment(t *testing.T) {
	res, err := TableII(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trim.Verified {
		t.Error("trim not verified")
	}
	red := res.Trim.MLMIAOW.Reduction(res.Trim.MIAOW)
	if red < 0.75 || red > 0.88 {
		t.Errorf("ML-MIAOW reduction %.2f outside band", red)
	}
	s := res.String()
	for _, frag := range []string{"MIAOW", "MIAOW2.0", "ML-MIAOW", "perf/area"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q", frag)
		}
	}
}

func TestTableIExperiment(t *testing.T) {
	res, err := TableI(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Total.BRAMs != 150 {
		t.Errorf("total BRAMs %d, want 150", res.Table.Total.BRAMs)
	}
	if !strings.Contains(res.String(), "ML-MIAOW (5 CUs)") {
		t.Error("rendering missing engine row")
	}
}

func TestFig6Experiment(t *testing.T) {
	res, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	g := res.Geomean
	if !(g[cpu.ModeRTAD] < g[cpu.ModeSWSys] &&
		g[cpu.ModeSWSys] < g[cpu.ModeSWFunc] &&
		g[cpu.ModeSWFunc] < g[cpu.ModeSWAll]) {
		t.Errorf("geomean ordering broken: %v", g)
	}
	if g[cpu.ModeRTAD] > 0.005 {
		t.Errorf("RTAD geomean %.4f%% too high", g[cpu.ModeRTAD]*100)
	}
	if !strings.Contains(res.String(), "geomean") {
		t.Error("rendering missing geomean row")
	}
}

func TestFig7Experiment(t *testing.T) {
	o := quickOpts()
	res, err := Fig7(o, "401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RTAD.Total() >= res.SW.Total() {
		t.Errorf("RTAD %v not faster than SW %v", res.RTAD.Total(), res.SW.Total())
	}
	if !strings.Contains(res.String(), "vectorize") {
		t.Error("rendering missing stages")
	}
}

func TestFig8ExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 is the heaviest experiment")
	}
	o := quickOpts()
	o.Benchmarks = []string{"458.sjeng", "471.omnetpp"}
	res, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ELM) != 2 || len(res.LSTM) != 2 {
		t.Fatalf("rows: %d ELM, %d LSTM", len(res.ELM), len(res.LSTM))
	}
	for _, rows := range [][]Fig8Row{res.ELM, res.LSTM} {
		for _, row := range rows {
			if row.Speedup <= 1.0 {
				t.Errorf("%s/%v: ML-MIAOW not faster (%.2fx)", row.Benchmark, row.Kind, row.Speedup)
			}
		}
	}
	if res.MeanSpeedup < 1.5 || res.MeanSpeedup > 5.0 {
		t.Errorf("mean speedup %.2fx outside plausible band (paper 2.75x)", res.MeanSpeedup)
	}
	// The paper's asymmetry: ELM gains more from the extra CUs than LSTM.
	if res.ELM[0].Speedup <= res.LSTM[0].Speedup {
		t.Logf("note: ELM speedup %.2f vs LSTM %.2f (paper has ELM higher)",
			res.ELM[0].Speedup, res.LSTM[0].Speedup)
	}
	if !strings.Contains(res.String(), "mean speedup") {
		t.Error("rendering incomplete")
	}
	if core.ModelELM.String() != "ELM" {
		t.Error("sanity")
	}
}

// TestFig8TelemetryWorkerInvariance checks the serial-merge contract behind
// cmd/experiments -metrics: Fig8 gives every cell a private registry and
// merges them in cell order, so the aggregate exposition is bit-identical
// at any worker count.
func TestFig8TelemetryWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 is the heaviest experiment")
	}
	expose := func(workers int) string {
		t.Helper()
		o := quickOpts()
		o.Benchmarks = []string{"458.sjeng", "456.hmmer"}
		o.Workers = workers
		o.Telemetry = obs.NewMetricsOnly()
		if _, err := Fig8(o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.Telemetry.Reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	serial, wide := expose(1), expose(4)
	if serial != wide {
		t.Errorf("fig8 metrics depend on worker count:\n--- 1 worker\n%s\n--- 4 workers\n%s", serial, wide)
	}
	for _, lane := range []string{"miaow", "mlmiaow"} {
		if want := "rtad_judgment_latency_us_" + lane + "_bucket"; !strings.Contains(serial, want) {
			t.Errorf("fig8 aggregate missing %s", want)
		}
	}
}

// TestGridsCloseTheirFleets runs small Fig 6 and Fig 8 grids four workers
// wide and requires the goroutine count to return to its baseline: a grid
// that leaves its fleet open parks a worker per unit of width on every
// call.
func TestGridsCloseTheirFleets(t *testing.T) {
	o := quickOpts()
	o.Benchmarks = []string{"458.sjeng"}
	o.OverheadInstr = 100_000
	o.Workers = 4
	base := exitedGoroutines()
	for i := 0; i < 3; i++ {
		if _, err := Fig6(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Fig8(o); err != nil {
		t.Fatal(err)
	}
	if n := exitedGoroutines(); n > base {
		t.Fatalf("%d goroutines after the grids, %d before", n, base)
	}
}

// exitedGoroutines counts goroutines once those that have run their last
// deferred call have also exited, as a closed fleet's workers have when
// Fleet.Close returns. With one P, each such goroutine, runnable anywhere,
// runs to its end before a yielding caller is scheduled again.
func exitedGoroutines() int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	return runtime.NumGoroutine()
}

func TestOptionsValidation(t *testing.T) {
	o := Options{Benchmarks: []string{"no-such-benchmark"}}
	if _, err := Fig6(o); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFig8RowHelpers(t *testing.T) {
	rows := []Fig8Row{
		{Benchmark: "a", MIAOW: 100 * sim.Microsecond, MLMIAOW: 30 * sim.Microsecond},
		{Benchmark: "b", MIAOW: 200 * sim.Microsecond, MLMIAOW: 70 * sim.Microsecond},
		{Benchmark: "c", MIAOW: 300 * sim.Microsecond, MLMIAOW: 50 * sim.Microsecond},
	}
	if got := MeanLatency(rows, false); got != 200*sim.Microsecond {
		t.Errorf("MIAOW mean = %v", got)
	}
	if got := MeanLatency(rows, true); got != 50*sim.Microsecond {
		t.Errorf("ML-MIAOW mean = %v", got)
	}
	if MeanLatency(nil, true) != 0 {
		t.Error("empty mean not zero")
	}
}
