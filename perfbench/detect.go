package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// Detect workloads run Fig 8 cells — one victim CPU, the trace chain and one
// model — serially on the calibrated native backend, each cell a
// core.Open/Step/Drain/Summary sequence. A "chunk" of a detect cell is one
// Step of the cell's step instructions: its chunk latency is the wall time
// the detector takes to keep up with that much victim execution.
const detectBackend = kernels.BackendNativeCalibrated

// detectCell is one Fig 8 configuration with its seed-resolved attack.
type detectCell struct {
	label  string
	dep    *core.Deployment
	cus    int
	stride int
	fifo   int
	instr  int64
	// step is the instruction count of one Step: small enough that a run
	// yields over a thousand chunk-latency samples.
	step   int64
	attack core.AttackSpec
	// paperUS is the paper's mean Fig 8 latency for this model and engine
	// width, printed next to the simulated one (0 = no paper figure).
	paperUS float64

	// Filled before measuring: the staged-trace oracle's judgment stream
	// and detection latency, and the branch count the victim CPU retires
	// over the cell's budget (isolation pass, traced runs only).
	want          []core.Judged
	wantLat       sim.Time
	branches      int64
	cpuNSPerInstr float64
}

func (c *detectCell) config(calib *kernels.Calibration) core.PipelineConfig {
	return core.PipelineConfig{CUs: c.cus, Stride: c.stride, FIFODepth: c.fifo,
		Backend: detectBackend, Calibration: calib}
}

// seededAttack resolves a cell's attack from the run seed: the attack seed
// and a trigger between 3/4 and 5/4 of the experiment default (instr/40).
func seededAttack(rng *rand.Rand, burst int, instr int64) core.AttackSpec {
	trigger := instr / 40 * int64(75+rng.Intn(51)) / 100
	return core.AttackSpec{TriggerBranch: trigger, BurstLen: burst, Seed: 1 + rng.Int63n(1<<30)}.Resolve(instr)
}

// trainDeployments trains one deployment per (benchmark, kind) and returns
// them with the calibration table every cell shares, timing each part.
func trainDeployments(specs []trainSpec) ([]*core.Deployment, *kernels.Calibration, setupTimes, error) {
	var t setupTimes
	deps := make([]*core.Deployment, len(specs))
	t0 := processCPU()
	for i, s := range specs {
		p, ok := workload.ByName(s.bench)
		if !ok {
			return nil, nil, t, fmt.Errorf("unknown benchmark %s", s.bench)
		}
		dep, err := core.Train(core.DefaultTrainConfig(p, s.kind))
		if err != nil {
			return nil, nil, t, err
		}
		deps[i] = dep
	}
	t.train = processCPU() - t0
	t0 = processCPU()
	calib := kernels.NewCalibration()
	for _, dep := range deps {
		for _, cus := range []int{1, 5} {
			var err error
			if dep.Kind == core.ModelELM {
				err = calib.CalibrateELM(dep.ELM, cus)
			} else {
				err = calib.CalibrateLSTM(dep.LSTM, cus)
			}
			if err != nil {
				return nil, nil, t, err
			}
		}
	}
	t.calibrate = processCPU() - t0
	return deps, calib, t, nil
}

type trainSpec struct {
	bench string
	kind  core.ModelKind
}

// detectSetup repeats the detect set-up and keeps the last repetition.
func detectSetup(specs []trainSpec) ([]*core.Deployment, *kernels.Calibration, setupSummary, error) {
	var (
		reps  []setupTimes
		deps  []*core.Deployment
		calib *kernels.Calibration
	)
	for i := 0; i < setupRepeats; i++ {
		// Each repetition starts from a collected heap, so the run's peak
		// RSS is one set-up's peak rather than depending on when the
		// previous repetition's garbage happened to be collected.
		runtime.GC()
		d, c, t, err := trainDeployments(specs)
		if err != nil {
			return nil, nil, setupSummary{}, err
		}
		deps, calib = d, c
		reps = append(reps, t)
	}
	return deps, calib, summariseSetup(reps), nil
}

// runDetectFig8 is the paper's own experiment: ELM on 400.perlbench and
// LSTM on 458.sjeng, on 1 and 5 CUs, default stride and FIFO, attack armed.
func runDetectFig8(cfg runConfig) (*result, error) {
	deps, calib, st, err := detectSetup([]trainSpec{
		{"400.perlbench", core.ModelELM}, {"458.sjeng", core.ModelLSTM},
	})
	if err != nil {
		return nil, err
	}
	const instr = 4_000_000
	rng := rand.New(rand.NewSource(cfg.seed))
	var cells []*detectCell
	for _, m := range []struct {
		dep     *core.Deployment
		burst   int
		paperUS [2]float64 // MIAOW (1 CU), ML-MIAOW (5 CUs)
	}{
		{deps[0], 4096, [2]float64{13.83, 4.21}},
		{deps[1], 0, [2]float64{53.16, 23.98}},
	} {
		for i, cus := range []int{1, 5} {
			cells = append(cells, &detectCell{
				label: fmt.Sprintf("%s/%s/%dcu", m.dep.Profile.Name, m.dep.Kind, cus),
				dep:   m.dep, cus: cus, instr: instr, step: 250_000,
				attack: seededAttack(rng, m.burst, instr), paperUS: m.paperUS[i],
			})
		}
	}
	return runDetect(cfg, cells, calib, st)
}

// runDetectSaturated is Fig 8's overflow regime for the LSTM: stride 24 and
// a FIFO deep enough that nothing drops, so every vector is judged.
func runDetectSaturated(cfg runConfig) (*result, error) {
	deps, calib, st, err := detectSetup([]trainSpec{{"458.sjeng", core.ModelLSTM}})
	if err != nil {
		return nil, err
	}
	const instr = 3_000_000
	rng := rand.New(rand.NewSource(cfg.seed))
	var cells []*detectCell
	for _, cus := range []int{1, 5} {
		cells = append(cells, &detectCell{
			label: fmt.Sprintf("458.sjeng/LSTM/%dcu/stride24", cus),
			dep:   deps[0], cus: cus, stride: 24, fifo: 1 << 16, instr: instr, step: 75_000,
			attack: seededAttack(rng, 0, instr),
		})
	}
	return runDetect(cfg, cells, calib, st)
}

// detectTotals accumulates one measurement phase over every cell run.
type detectTotals struct {
	cells, failed      int64
	wall               time.Duration // timed regions only; checks excluded
	cpu                time.Duration // process CPU time of the timed regions
	instr, judged      int64
	ptmBytes           int64
	stepMS             map[string][]float64 // wall time of each Step, by cell
	steps              int64
	stepsWall          time.Duration // Step spans only
	openMS             []float64
	stepWall           time.Duration // Step and Drain spans
	branches, injected int64
	cpuNS              float64 // isolation estimate of the CPU's share of stepWall
	lastLatency        map[string]sim.Time
	problems           []string
	// Per-pass rates (one pass runs every cell once). Rates are reported
	// as medians over passes, so a burst of host interference that slows
	// one pass does not move them.
	passMinstr, passJudged, passMB []float64
	// passStepMS is each pass's mean Step wall time. The cells' Step times
	// differ by model and engine width, and a median over all Steps jumps
	// between the cells' clusters.
	passStepMS []float64
}

// rates reports the median per-pass victim Minstr per second of process
// CPU time, and judgments and trace MB per wall-clock second.
func (t *detectTotals) rates() (minstr, judged, mb float64) {
	return median(t.passMinstr), median(t.passJudged), median(t.passMB)
}

// runDetect measures the cells for the run's seconds and checks each cell
// run against its oracle. A traced run spends the first half untraced, for
// the tracing-overhead comparison, and the second half traced.
func runDetect(cfg runConfig, cells []*detectCell, calib *kernels.Calibration, st setupSummary) (*result, error) {
	r := newResult()
	for _, c := range cells {
		if err := c.oracle(calib); err != nil {
			return nil, fmt.Errorf("%s oracle: %w", c.label, err)
		}
	}
	if !cfg.trace {
		tot := measureDetect(cells, calib, cfg.seconds, nil)
		r.attempted, r.failed, r.problems = tot.cells, tot.failed, tot.problems
		for _, c := range cells {
			steps := tot.stepMS[c.label]
			r.note("fig8 %-32s simulated latency %8.2f us (paper mean %s), oracle-checked; %d Steps of %d instructions, wall p50 %.3f ms, p99 %.3f ms",
				c.label, tot.lastLatency[c.label].Microseconds(), paperFigure(c.paperUS),
				len(steps), c.step, quantile(steps, 0.50), quantile(steps, 0.99))
		}
		minstr, judged, mb := tot.rates()
		st.note(r)
		r.set("setup_s", st.total, "s")
		r.set("sim_minstr_per_s", minstr, "Minstr/s")
		r.set("judgments_per_s", judged, "1/s")
		r.set("ingest_mb_per_s", mb, "MB/s")
		r.set("chunk_latency_p50_ms", median(tot.passStepMS), "ms")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.note("%d passes of %d cells in %.2f s wall, %.2f s process CPU",
			len(tot.passJudged), len(cells), tot.wall.Seconds(), tot.cpu.Seconds())
		return r, nil
	}

	// Traced run.
	plain := measureDetect(cells, calib, cfg.seconds/2, nil)
	if err := isolateCPU(cells); err != nil {
		return nil, err
	}
	wall := obs.NewWallTracer()
	tr := &detectTrace{
		tel:   obs.NewMetricsOnly(),
		track: wall.Track("bench", "detect"),
	}
	tr.infer = &inferClock{track: tr.track}
	tot := measureDetect(cells, calib, cfg.seconds-cfg.seconds/2, tr)
	r.attempted = plain.cells + tot.cells
	r.failed = plain.failed + tot.failed
	r.problems = append(plain.problems, tot.problems...)

	p, _ := workload.ByName("458.sjeng")
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	stream, err := captureTrace(prog, 0, 1_000_000)
	if err != nil {
		return nil, err
	}
	decodeNS := decodeIsolation(stream)

	pipeBranches := tot.branches + tot.injected
	chain := tot.stepWall - tr.infer.busy - time.Duration(tot.cpuNS)
	r.set("cpu.ns_per_instr", tot.cpuNS/float64(tot.instr), "ns")
	r.set("cpu.instr", float64(tot.instr), "count")
	r.set("cpu.branches", float64(tot.branches), "count")
	r.set("pipeline.ns_per_branch", float64(chain.Nanoseconds())/float64(pipeBranches), "ns")
	reportChainCounters(r, tr.tel, 1)
	r.set("ptm.decode_ns_per_byte", decodeNS, "ns")
	reportInference(r, float64(tr.infer.busy.Nanoseconds())/float64(tr.infer.windows),
		float64(tr.infer.calls), float64(tr.infer.windows))
	r.set("core.open_ms", median(tot.openMS), "ms")
	reportNoServe(r)
	st.report(r)
	layerShares(r, tot.wall, "wall time of the traced cell runs", map[string]time.Duration{
		"cpu":      time.Duration(tot.cpuNS),
		"pipeline": chain,
		"kernels":  tr.infer.busy,
	})
	_, tracedRate, _ := tot.rates()
	_, plainRate, _ := plain.rates()
	r.set("trace_overhead_share", 1-tracedRate/plainRate, "ratio")
	r.set("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	path, err := writeTrace(wall, cfg)
	if err != nil {
		return nil, err
	}
	r.note("wall trace: %s (%d events)", path, wall.Events())
	return r, nil
}

// detectTrace is the traced phase's instrumentation.
type detectTrace struct {
	tel   *obs.Telemetry
	track *obs.WallTrack
	infer *inferClock
}

// isolateCPU measures each cell's victim CPU alone over the cell's budget.
func isolateCPU(cells []*detectCell) error {
	type key struct {
		bench string
		instr int64
	}
	type iso struct {
		ns       float64
		branches int64
	}
	done := map[key]iso{}
	for _, c := range cells {
		k := key{c.dep.Profile.Name, c.instr}
		v, ok := done[k]
		if !ok {
			ns, br, err := cpuIsolation(c.dep.Profile, c.instr)
			if err != nil {
				return err
			}
			v = iso{ns, br}
			done[k] = v
		}
		c.branches, c.cpuNSPerInstr = v.branches, v.ns
	}
	return nil
}

// measureDetect runs every cell in turn, repeatedly, until budget has
// passed (at least once), and checks each cell run.
func measureDetect(cells []*detectCell, calib *kernels.Calibration, budget time.Duration, tr *detectTrace) detectTotals {
	tot := detectTotals{lastLatency: map[string]sim.Time{}, stepMS: map[string][]float64{}}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		cpu, wall, instr, judged, bytes := tot.cpu, tot.wall, tot.instr, tot.judged, tot.ptmBytes
		steps, stepsWall := tot.steps, tot.stepsWall
		for _, c := range cells {
			// Every cell run starts from a collected heap, so the garbage
			// collection it triggers inside its timed region does not depend
			// on what ran before it.
			runtime.GC()
			id := fmt.Sprintf("cell-%d-%s", tot.cells, c.label)
			tot.cells++
			if err := c.run(calib, id, &tot, tr); err != nil {
				tot.failed++
				tot.problems = append(tot.problems, fmt.Sprintf("%s: %v", id, err))
			}
		}
		tot.passMinstr = append(tot.passMinstr, float64(tot.instr-instr)/(tot.cpu-cpu).Seconds()/1e6)
		secs := (tot.wall - wall).Seconds()
		tot.passJudged = append(tot.passJudged, float64(tot.judged-judged)/secs)
		tot.passMB = append(tot.passMB, float64(tot.ptmBytes-bytes)/secs/1e6)
		tot.passStepMS = append(tot.passStepMS, ms(tot.stepsWall-stepsWall)/float64(tot.steps-steps))
	}
	return tot
}

// run executes one cell run, timed, then checks it against the oracle.
func (c *detectCell) run(calib *kernels.Calibration, id string, tot *detectTotals, tr *detectTrace) error {
	opts := []core.Option{core.WithConfig(c.config(calib)), core.WithAttack(c.attack)}
	var track *obs.WallTrack
	if tr != nil {
		opts = append(opts, core.WithTelemetry(tr.tel), core.WithEngineWrap(tr.infer.wrap))
		tr.infer.id = id
		track = tr.track
	}
	args := map[string]any{"id": id}
	t0, cpu0 := time.Now(), processCPU()
	s, err := core.Open(core.Deployments{c.dep}, opts...)
	if err != nil {
		return err
	}
	t1 := time.Now()
	track.Span("open", t0, t1, args)
	tot.openMS = append(tot.openMS, ms(t1.Sub(t0)))
	var got []core.Judged
	for left := c.instr; left > 0; {
		n := c.step
		if n > left {
			n = left
		}
		ts := time.Now()
		if _, err := s.Step(n); err != nil {
			return err
		}
		te := time.Now()
		tot.stepMS[c.label] = append(tot.stepMS[c.label], ms(te.Sub(ts)))
		tot.steps++
		tot.stepsWall += te.Sub(ts)
		track.Span("step", ts, te, args)
		tot.stepWall += te.Sub(ts)
		got = append(got, s.Results()...)
		left -= n
	}
	ts := time.Now()
	if err := s.Drain(); err != nil {
		return err
	}
	te := time.Now()
	track.Span("drain", ts, te, args)
	tot.stepWall += te.Sub(ts)
	got = append(got, s.Results()...)
	res, err := s.Summary()
	if err != nil {
		return err
	}
	end := time.Now()
	tot.cpu += processCPU() - cpu0
	track.Span("summary", te, end, args)
	tot.wall += end.Sub(t0)

	// Untimed from here: accounting and the oracle check.
	tot.instr += s.Instret()
	tot.judged += int64(len(got))
	if stages := s.Stages(); len(stages) > 0 {
		tot.ptmBytes += stages[0].Accepted
	}
	tot.branches += c.branches
	if s.AttackFired() {
		tot.injected += int64(c.attack.BurstLen)
	}
	tot.cpuNS += c.cpuNSPerInstr * float64(s.Instret())
	tot.lastLatency[c.label] = res.Latency
	if res.Latency != c.wantLat {
		return fmt.Errorf("detection latency %v, oracle %v", res.Latency, c.wantLat)
	}
	return sameJudgments(got, c.want)
}

// oracle computes the cell's reference judgment stream and detection
// latency on the staged byte/word trace path, same backend.
func (c *detectCell) oracle(calib *kernels.Calibration) error {
	cfg := c.config(calib)
	cfg.StagedTrace = true
	s, err := core.Open(core.Deployments{c.dep}, core.WithConfig(cfg), core.WithAttack(c.attack))
	if err != nil {
		return err
	}
	res, err := s.Detect(c.instr)
	if err != nil {
		return err
	}
	c.want = s.Results()
	c.wantLat = res.Latency
	if len(c.want) == 0 {
		return fmt.Errorf("oracle judged nothing")
	}
	return nil
}

// sameJudgments compares two judgment streams on every field a client sees.
func sameJudgments(got, want []core.Judged) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d judgments, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Vector.Seq != w.Vector.Seq || g.Rec.Done != w.Rec.Done || g.FinalRetire != w.FinalRetire ||
			g.Rec.Judgment != w.Rec.Judgment {
			return fmt.Errorf("judgment %d differs from the oracle", i)
		}
	}
	return nil
}

func paperFigure(us float64) string {
	if us == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f us", us)
}

// reportChainCounters reports the trace chain's work counts from a
// metrics-only telemetry bundle, scaled by times (the number of identical
// sessions the counted one stands for).
func reportChainCounters(r *result, tel *obs.Telemetry, times float64) {
	r.set("ptm.bytes", times*counter(tel, "rtad_ptm_bytes_total"), "count")
	r.set("tpiu.frames", times*counter(tel, "rtad_tpiu_frames_total"), "count")
	r.set("igm.vectors", times*counter(tel, "rtad_igm_vectors_total"), "count")
	r.set("mcm.accepted", times*counter(tel, "rtad_mcm_accepted_total"), "count")
	r.set("mcm.dropped", times*counter(tel, "rtad_mcm_dropped_total"), "count")
	r.set("sim.events", times*counter(tel, "rtad_sim_events_total"), "count")
}

// reportInference reports the inference layer: its cost per window and
// how many engine calls carried how many windows.
func reportInference(r *result, nsPerWindow, calls, windows float64) {
	perCall := 0.0
	if calls > 0 {
		perCall = windows / calls
	}
	r.set("kernels.infer_ns_per_window", nsPerWindow, "ns")
	r.set("kernels.calls", calls, "count")
	r.set("kernels.windows_per_call", perCall, "count")
}

// reportNoServe sets the serving-plane metrics a detect workload does not
// exercise, so every run reports the same per-layer set.
func reportNoServe(r *result) {
	for _, name := range []string{
		"serve.dial_ms_p50", "serve.admission_ms_p50", "serve.read_ms_p99",
		"serve.feed_ms_p50", "serve.feed_ms_p99", "serve.write_ms_p99",
		"serve.chunk_judgment_ms_p99",
	} {
		r.set(name, 0, "ms")
	}
	r.set("serve.queue_depth_max", 0, "count")
	reportBatch(r, nil)
	r.set("client.chunk_latency_p50_ms", 0, "ms")
	r.set("client.chunk_latency_p99_ms", 0, "ms")
	r.set("client.lag_ms_p99", 0, "ms")
	r.set("client.send_blocked_ms_p99", 0, "ms")
	r.set("serve.self_share", 0, "ratio")
	r.set("ptm_decode.self_share", 0, "ratio")
}
