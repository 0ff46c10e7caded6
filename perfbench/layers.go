package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"rtad/internal/cpu"
	"rtad/internal/isa"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

// setupRepeats is how many times a run builds its whole set-up; setup_s is
// the median, so slow repetitions do not move it (on the shared host one
// repetition's CPU time varies by about 20% from the next).
const setupRepeats = 5

// setupTimes is one set-up repetition's cost, by part, in process CPU
// time: set-up is CPU-bound work, and CPU time leaves out the time the
// hypervisor steals from a shared virtual machine.
type setupTimes struct {
	train, capture, calibrate, server time.Duration
}

func (t setupTimes) total() time.Duration { return t.train + t.capture + t.calibrate + t.server }

// setupSummary reduces the repetitions to medians.
type setupSummary struct {
	total, train, capture, calibrate, server float64 // seconds
	totals                                   []float64
}

func summariseSetup(reps []setupTimes) setupSummary {
	col := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r).Seconds()
		}
		return median(xs)
	}
	totals := make([]float64, len(reps))
	for i, r := range reps {
		totals[i] = r.total().Seconds()
	}
	return setupSummary{
		totals:    totals,
		total:     median(totals),
		train:     col(func(t setupTimes) time.Duration { return t.train }),
		capture:   col(func(t setupTimes) time.Duration { return t.capture }),
		calibrate: col(func(t setupTimes) time.Duration { return t.calibrate }),
		server:    col(func(t setupTimes) time.Duration { return t.server }),
	}
}

func (s setupSummary) note(r *result) {
	r.note("set-up: %d repetitions, process CPU seconds %.3f; setup_s is their median", len(s.totals), s.totals)
}

func (s setupSummary) report(r *result) {
	r.set("setup.train_s", s.train, "s")
	r.set("setup.capture_s", s.capture, "s")
	r.set("setup.calibrate_s", s.calibrate, "s")
	r.set("setup.server_s", s.server, "s")
}

// processCPU is the process's cumulative user+system CPU time. Set-up and
// sim_minstr_per_s, the cost of the work rather than what a client waits
// for, are timed in it: it excludes the time the hypervisor steals from a
// shared virtual machine, which otherwise swings them between runs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// inferClock accumulates the inference layer's self time, measured by
// timedEngine around every engine call of the sessions it wraps. One clock
// serves one goroutine.
type inferClock struct {
	calls, windows int64
	busy           time.Duration
	track          *obs.WallTrack
	id             string // span id of the cell or chunk being driven
}

// wrap is the core.WithEngineWrap hook.
func (c *inferClock) wrap(be kernels.Backend) kernels.Backend {
	return &timedEngine{Backend: be, clk: c}
}

func (c *inferClock) observe(start time.Time, windows int) {
	end := time.Now()
	c.calls++
	c.windows += int64(windows)
	c.busy += end.Sub(start)
	c.track.Span("infer", start, end, map[string]any{"id": c.id, "windows": windows})
}

// timedEngine times every inference call of the engine it wraps. FixedCost
// is forwarded so the MCM keeps deferring judgments to one InferBatch per
// delivery, exactly as it does unwrapped.
type timedEngine struct {
	kernels.Backend
	clk *inferClock
}

func (e *timedEngine) Infer(w []int32) (kernels.Judgment, int64, error) {
	t0 := time.Now()
	j, cyc, err := e.Backend.Infer(w)
	e.clk.observe(t0, 1)
	return j, cyc, err
}

func (e *timedEngine) InferBatch(ws [][]int32) ([]kernels.Judgment, []int64, error) {
	t0 := time.Now()
	js, cyc, err := e.Backend.InferBatch(ws)
	e.clk.observe(t0, len(ws))
	return js, cyc, err
}

func (e *timedEngine) FixedCost() (int64, bool) {
	if fc, ok := e.Backend.(kernels.FixedCoster); ok {
		return fc.FixedCost()
	}
	return 0, false
}

// isolationRepeats is how many timed passes each isolation measurement
// takes; it reports the median.
const isolationRepeats = 3

// cpuIsolation times the victim CPU alone: cpu.CPU.Run over the program and
// instruction budget a detect cell executes, with a sink that only counts
// branches. The translation cache is warmed first, as a deployment's shared
// cache is in the measured sessions.
func cpuIsolation(p workload.Profile, instr int64) (nsPerInstr float64, branches int64, err error) {
	prog, err := p.Generate()
	if err != nil {
		return 0, 0, err
	}
	cache := cpu.NewCache(prog)
	pass := func() (time.Duration, int64, error) {
		var n int64
		c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Cache: cache,
			Sink: cpu.SinkFunc(func(cpu.BranchEvent) int64 { n++; return 0 })})
		t0 := time.Now()
		_, err := c.Run(instr)
		return time.Since(t0), n, err
	}
	if _, _, err := pass(); err != nil {
		return 0, 0, err
	}
	var ds []float64
	for i := 0; i < isolationRepeats; i++ {
		d, n, err := pass()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(d.Nanoseconds()))
		branches = n
	}
	return median(ds) / float64(instr), branches, nil
}

// decodeIsolation times the PTM stream decoder alone (FeedByte over the
// bytes), in nanoseconds per byte.
func decodeIsolation(stream []byte) float64 {
	var ds []float64
	var packets int
	for i := 0; i < isolationRepeats; i++ {
		dec := ptm.NewStreamDecoder()
		t0 := time.Now()
		for _, b := range stream {
			if _, ok := dec.FeedByte(b); ok {
				packets++
			}
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds()))
	}
	if packets == 0 {
		return 0
	}
	return median(ds) / float64(len(stream))
}

// captureTrace records the raw branch-broadcast PTM stream a CoreSight probe
// would emit for the program's instructions [skip, skip+instr).
func captureTrace(prog *isa.Program, skip, instr int64) ([]byte, error) {
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	capturing := false
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		if capturing {
			stream = enc.EncodeInto(stream, ev)
		}
		return 0
	})})
	if _, err := c.Run(skip); err != nil {
		return nil, err
	}
	capturing = true
	if _, err := c.Run(instr); err != nil {
		return nil, err
	}
	return append(stream, enc.Flush()...), nil
}

// layerShares reports each layer's attributed time as a share of the
// traced phase's measured time (busy, described by what), and the
// remainder no layer accounts for.
func layerShares(r *result, busy time.Duration, what string, layers map[string]time.Duration) {
	var sum time.Duration
	names := make([]string, 0, len(layers))
	for name, d := range layers {
		sum += d
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		share := 0.0
		if busy > 0 {
			share = layers[name].Seconds() / busy.Seconds()
		}
		r.set(name+".self_share", share, "ratio")
		r.note("reconcile %-8s %10.1f ms  %5.1f%% of busy", name, ms(layers[name]), 100*share)
	}
	r.note("reconcile measured %10.1f ms (%s), attributed %.1f ms", ms(busy), what, ms(sum))
	un := 0.0
	if busy > 0 {
		un = 1 - sum.Seconds()/busy.Seconds()
	}
	r.set("unattributed_share", un, "ratio")
}

// writeTrace exports the run's wall-clock spans as Perfetto JSON under
// .bench_build/traces in the working directory. The server labels its feed
// spans with the session only; each gets the chunk id the client's spans
// carry, "<session>/<k>" for the session's k-th feed: every chunk is sent
// as one frame, and a session's feeds run, and are recorded, in order.
func writeTrace(wall *obs.WallTracer, cfg runConfig) (string, error) {
	var buf bytes.Buffer
	if err := wall.WriteJSON(&buf); err != nil {
		return "", err
	}
	var doc map[string]any
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return "", err
	}
	events, _ := doc["traceEvents"].([]any)
	feeds := map[string]int{}
	for _, e := range events {
		ev, _ := e.(map[string]any)
		args, _ := ev["args"].(map[string]any)
		session, ok := args[obs.SessionKey].(string)
		if ev["name"] != "feed" || !ok {
			continue
		}
		args["chunk"] = fmt.Sprintf("%s/%d", session, feeds[session])
		feeds[session]++
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", cfg.name, cfg.seed))
	return path, os.WriteFile(path, out, 0o644)
}

// counter reads one telemetry counter (0 when it was never registered).
func counter(tel *obs.Telemetry, name string) float64 {
	return float64(tel.Reg.Counter(name).Value())
}
