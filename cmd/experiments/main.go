// Command experiments regenerates the paper's evaluation: Table I, Table
// II, Fig 6, Fig 7 and Fig 8, printing each in a text layout matching the
// published one. EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	experiments -all
//	experiments -fig8 -benchmarks sjeng,omnetpp -detect 2000000
//	experiments -all -workers 8 -json results.json
//
// The grid experiments (Fig 6, Fig 8) fan their benchmark × model cells
// over a session fleet sized by -workers; results are bit-identical at any
// width. -json additionally writes every computed result as one
// machine-readable document. -metrics collects a telemetry registry across
// the grid runs (merged serially in cell order, so aggregates are
// bit-identical at any -workers) and embeds its snapshot in the JSON report;
// -metrics-addr additionally serves it live as Prometheus text with pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtad/internal/experiments"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/prof"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		table1 = flag.Bool("table1", false, "Table I: synthesized results")
		table2 = flag.Bool("table2", false, "Table II: trimming result")
		fig6   = flag.Bool("fig6", false, "Fig 6: performance overhead")
		fig7   = flag.Bool("fig7", false, "Fig 7: data transfer latency")
		fig8   = flag.Bool("fig8", false, "Fig 8: detection latency")

		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 12)")
		overhead   = flag.Int64("overhead", 0, "Fig 6 instruction budget per run")
		detect     = flag.Int64("detect", 0, "Fig 8 instruction budget per detection run")
		trainELM   = flag.Int64("train-elm", 0, "ELM training instruction budget (0 = default)")
		trainLSTM  = flag.Int64("train-lstm", 0, "LSTM training instruction budget (0 = default)")
		fig7Bench  = flag.String("fig7bench", "401.bzip2", "benchmark for Fig 7")
		backend    = flag.String("backend", "", "inference backend: gpu | native-calibrated (default gpu; judgments are bit-identical across backends)")
		workers    = flag.Int("workers", 0, "fleet width for the grid experiments (0 = one per CPU)")
		jsonPath   = flag.String("json", "", "also write results as JSON to this path")
		metrics    = flag.Bool("metrics", false, "collect telemetry metrics and embed the snapshot in the JSON report")
		metricsAdr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof live on this address (implies -metrics)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	ps, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer ps.Stop()

	opts := experiments.Options{
		OverheadInstr: *overhead, DetectInstr: *detect,
		TrainELMInstr: *trainELM, TrainLSTMInstr: *trainLSTM,
		Workers: *workers, Backend: *backend,
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *backend == kernels.BackendNativeCalibrated {
		// One table shared by every pipeline of the run: the one-time GPU
		// calibration pass happens once per deployed shape, and the
		// recorded costs land in the JSON report.
		opts.Calibration = kernels.NewCalibration()
	}
	if !(*all || *table1 || *table2 || *fig6 || *fig7 || *fig8) {
		flag.Usage()
		prof.Exit(ps, 2)
	}

	var tel *obs.Telemetry
	if *metrics || *metricsAdr != "" {
		tel = obs.NewMetricsOnly()
		opts.Telemetry = tel
	}
	if *metricsAdr != "" {
		srv, err := obs.Serve(*metricsAdr, tel.Reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			prof.Exit(ps, 1)
		}
		defer srv.Close()
		fmt.Printf("serving metrics at http://%s/metrics\n", srv.Addr())
	}

	report := experiments.NewReport(opts)

	run := func(name, key string, enabled bool, f func() (fmt.Stringer, error)) {
		if !*all && !enabled {
			return
		}
		start := time.Now()
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			prof.Exit(ps, 1)
		}
		wall := time.Since(start).Seconds()
		report.WallSeconds[key] = wall
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, wall, res)
	}

	run("Table II — trimming result of ML-MIAOW", "table2", *table2, func() (fmt.Stringer, error) {
		res, err := experiments.TableII(opts)
		if err == nil {
			report.TableII = res.Report()
		}
		return res, err
	})
	run("Table I — synthesized results of RTAD", "table1", *table1, func() (fmt.Stringer, error) {
		res, err := experiments.TableI(opts)
		if err == nil {
			report.TableI = res.Report()
		}
		return res, err
	})
	run("Fig 6 — performance overhead of RTAD", "fig6", *fig6, func() (fmt.Stringer, error) {
		res, err := experiments.Fig6(opts)
		if err == nil {
			report.Fig6 = res.Report()
		}
		return res, err
	})
	run("Fig 7 — data transfer latency of RTAD", "fig7", *fig7, func() (fmt.Stringer, error) {
		res, err := experiments.Fig7(opts, *fig7Bench)
		if err == nil {
			report.Fig7 = res.Report()
		}
		return res, err
	})
	run("Fig 8 — latencies of anomaly detection", "fig8", *fig8, func() (fmt.Stringer, error) {
		res, err := experiments.Fig8(opts)
		if err == nil {
			report.Fig8 = res.Report()
		}
		return res, err
	})

	if tel != nil {
		report.Metrics = tel.Reg.Snapshot()
	}
	report.RecordCalibration(opts.Calibration)
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding report: %v\n", err)
			prof.Exit(ps, 1)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			prof.Exit(ps, 1)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}
