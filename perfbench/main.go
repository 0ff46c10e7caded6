// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the RTAD detection pipeline or the rtadd serving
// plane, checks every output against a reference, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with tracing
// off); with -trace 1 the run records wall-clock spans and counters and
// reports the per-layer metrics instead, writing the spans as Perfetto JSON
// under .bench_build/traces/.
//
// Run it through run.sh from the repository root, which builds this module
// against the checkout:
//
//	bash perfbench/run.sh --workload detect-fig8 --seed 1 --seconds 10 --trace 0
//
// The workloads, and why each exists, are recorded in design.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"detect-fig8":         runDetectFig8,
	"detect-saturated":    runDetectSaturated,
	"serve-sparse":        runServeSparse,
	"serve-dense-batched": runServeDenseBatched,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	name    string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports: operation accounting, the metrics
// of the requested kind, and human-readable notes printed before them.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	order     []string
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// set records a metric, keeping first-set order for printing.
func (r *result) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed check; it does not stop the run.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: detect-fig8, detect-saturated, serve-sparse, serve-dense-batched")
		seed    = flag.Int64("seed", 1, "input seed: picks the attack seed/trigger and the trace-capture slice")
		seconds = flag.Int("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, name: *name}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printResult writes the notes, one line per metric, and the JSON result
// line. A metric that is not a finite number is an error (JSON cannot carry
// it), so such a result is never printed.
func printResult(r *result) error {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
