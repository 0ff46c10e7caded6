// Command rtadsim runs the full RTAD SoC on one benchmark: it trains the
// selected model on a normal run, deploys it on the simulated MPSoC,
// injects the paper's attack (legitimate branch data replayed out of
// context) and reports the detection timeline and pipeline statistics.
//
// Usage:
//
//	rtadsim -bench omnetpp -model lstm -cus 5
//	rtadsim -bench perlbench -model elm -cus 1 -instr 6000000
//	rtadsim -bench sjeng -trace trace.json -metrics-addr 127.0.0.1:8080
//
// -trace records the run as Chrome/Perfetto trace_event JSON (open it at
// ui.perfetto.dev) with one track per pipeline stage; -metrics-addr serves
// the live metrics registry as Prometheus text plus net/http/pprof for the
// duration of the run. Both are observation-only: the simulated timeline is
// bit-identical with or without them.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rtad/internal/core"
	"rtad/internal/obs"
	"rtad/internal/prof"
	"rtad/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "458.sjeng", "benchmark (SPEC-like name, e.g. omnetpp)")
		model   = flag.String("model", "lstm", "detector: elm | lstm")
		cus     = flag.Int("cus", 5, "compute units (1 = MIAOW, 5 = ML-MIAOW)")
		backend = flag.String("backend", "", "inference backend: gpu | native-calibrated (default gpu; judgments are bit-identical across backends)")
		instr   = flag.Int64("instr", 3_000_000, "detection-run instruction budget")
		burst   = flag.Int("burst", 16384, "injected legitimate-event burst length")
		seed    = flag.Int64("seed", 1, "attack placement seed")
		mimic   = flag.Bool("mimicry", false, "replay a contiguous legitimate segment (harder to detect)")
		save    = flag.String("save", "", "save the trained deployment to this file")
		load    = flag.String("load", "", "load a previously saved deployment instead of training")
		trInstr = flag.Int64("train-instr", 0, "override the training instruction budget (0 = model default; different budgets yield distinct model versions for rtadd's registry)")

		tracePath  = flag.String("trace", "", "write a Perfetto trace_event JSON of the detection run to this file")
		metricsAdr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof live on this address")
		hold       = flag.Duration("hold", 0, "keep the metrics server up this long after the run (for scrapers)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	ps, perr := prof.Start(*cpuProf, *memProf)
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	defer ps.Stop()

	var tel *obs.Telemetry
	switch {
	case *tracePath != "":
		tel = obs.New()
	case *metricsAdr != "":
		tel = obs.NewMetricsOnly()
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

	p, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; known:\n", *bench)
		for _, q := range workload.Profiles() {
			fmt.Fprintf(os.Stderr, "  %s\n", q.Name)
		}
		prof.Exit(ps, 2)
	}
	var kind core.ModelKind
	switch *model {
	case "elm":
		kind = core.ModelELM
	case "lstm":
		kind = core.ModelLSTM
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q (want elm or lstm)\n", *model)
		prof.Exit(ps, 2)
	}

	var dep *core.Deployment
	var err error
	if *load != "" {
		dep, err = core.LoadDeploymentFile(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		fmt.Printf("loaded %v deployment for %s from %s\n", dep.Kind, dep.Profile.Name, *load)
	} else {
		fmt.Printf("training %v detector on %s (normal traces)...\n", kind, p.Name)
		tcfg := core.DefaultTrainConfig(p, kind)
		if *trInstr > 0 {
			tcfg.TrainInstr = *trInstr
		}
		dep, err = core.Train(tcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		fmt.Printf("  %d training windows, threshold %.4f, IGM table %d entries\n",
			dep.TrainWindows, modelThreshold(dep), dep.Mapper.Size())
	}
	if *save != "" {
		if err := dep.SaveFile(*save); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		fmt.Printf("deployment saved to %s\n", *save)
	}

	kind = dep.Kind
	detInstr := *instr
	if kind == core.ModelELM && detInstr < 6_000_000 {
		detInstr = 6_000_000 // syscall windows are sparse
	}
	fmt.Printf("running detection (%d instructions, %d CUs, burst %d)...\n", detInstr, *cus, *burst)
	spec := core.AttackSpec{BurstLen: *burst, Seed: *seed, Mimicry: *mimic}
	sess, err := core.Open(core.Deployments{dep},
		core.WithConfig(core.PipelineConfig{CUs: *cus, Telemetry: tel, Backend: *backend}),
		core.WithAttack(spec.Resolve(detInstr)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(ps, 1)
	}
	res, err := sess.Detect(detInstr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(ps, 1)
	}
	fmt.Printf("\nattack injected at %v\n", res.InjectTime)
	fmt.Printf("first post-attack judgment: latency %v (branch retired %v, judged %v)\n",
		res.Latency, res.First.FinalRetire, res.First.Rec.Done)
	if res.Detected {
		fmt.Printf("anomaly IRQ raised at %v (%v after injection)\n",
			res.IRQTime, res.IRQTime-res.InjectTime)
	} else {
		fmt.Printf("no anomaly IRQ within the run (smoothed score stayed under threshold)\n")
	}
	fmt.Printf("pipeline: %d vectors judged, %d dropped at the MCM FIFO (max occupancy %d)\n",
		res.Judged, res.Dropped, res.MaxOcc)
	fmt.Printf("stage queues (end of run):\n")
	for _, st := range res.Stages {
		fmt.Printf("  %-5s len %4d  max depth %4d  accepted %8d  dropped %d (loss %.3f%%)\n",
			st.Name, st.Len, st.MaxDepth, st.Accepted, st.Dropped, 100*st.LossRate())
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		if err := tel.Tracer.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(ps, 1)
		}
		fmt.Printf("wrote %d trace events (%d tracks, %d dropped) to %s — open at ui.perfetto.dev\n",
			tel.Tracer.Events(), len(tel.Tracer.TrackNames()), tel.Tracer.Dropped(), *tracePath)
	}
	if *metricsAdr != "" && *hold > 0 {
		fmt.Printf("holding metrics server for %v...\n", *hold)
		time.Sleep(*hold)
	}
}

func modelThreshold(dep *core.Deployment) float64 {
	if dep.Kind == core.ModelELM {
		return dep.ELM.Threshold
	}
	return dep.LSTM.Threshold
}
