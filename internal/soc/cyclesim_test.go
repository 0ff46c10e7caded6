package soc

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/kernels"
	"rtad/internal/mcm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
	"rtad/internal/workload"
)

// analyticVectors runs the same record through internal/core's stage models
// (the analytic path, reproduced here from its building blocks to avoid an
// import cycle with core's training machinery).
func analyticVectors(events []cpu.BranchEvent, cfg Config) []igm.Vector {
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	port := ptm.NewPort(ptm.PortConfig{DrainThreshold: cfg.DrainThreshold})
	fmtr := tpiu.NewFormatter(tpiu.Config{})
	g := igm.New(igm.Config{Mapper: cfg.Mapper, Window: cfg.Window, Stride: cfg.Stride})
	var last sim.Time
	for _, ev := range events {
		last = sim.CPUClock.Duration(ev.Cycle)
		port.Push(last, enc.EncodeInto(nil, ev))
	}
	port.Push(last, enc.Flush())
	port.Flush(last)
	for _, tb := range port.TakeInto(nil) {
		fmtr.Push(tb.At, tb.B)
	}
	fmtr.Flush(last)
	for _, w := range fmtr.TakeInto(nil) {
		g.FeedWord(w)
	}
	return g.TakeInto(nil)
}

func record(t *testing.T, bench string, instr int64) ([]cpu.BranchEvent, *igm.AddressMap) {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := &cpu.CollectSink{}
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: rec})
	if _, err := c.Run(instr); err != nil {
		t.Fatal(err)
	}
	// Vocabulary: the eight hottest targets keep the test focused.
	counts := map[uint32]int{}
	for _, ev := range rec.Events {
		if ev.Taken {
			counts[ev.Target]++
		}
	}
	mapper := igm.NewAddressMap()
	for n := 0; n < 48; n++ {
		best, bestN := uint32(0), 0
		for a, c := range counts {
			if c > bestN {
				best, bestN = a, c
			}
		}
		if bestN == 0 {
			break
		}
		mapper.Add(best)
		delete(counts, best)
	}
	return rec.Events, mapper
}

// TestCycleModelMatchesAnalyticModel is the co-simulation cross-check: the
// cycle-stepped hardware and the analytic availability-time algebra must
// produce the identical vector stream, with emission times agreeing to
// within a handful of fabric cycles (the models register data at slightly
// different points).
func TestCycleModelMatchesAnalyticModel(t *testing.T) {
	for _, bench := range []string{"458.sjeng", "456.hmmer"} {
		events, mapper := record(t, bench, 40_000)
		cfg := Config{Mapper: mapper, Window: 4, Stride: 4, DrainThreshold: 64}

		want := analyticVectors(events, cfg)
		got, err := Run(events, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if len(got.Vectors) != len(want) {
			t.Fatalf("%s: cycle model emitted %d vectors, analytic %d",
				bench, len(got.Vectors), len(want))
		}
		const tol = 40 * 8 * sim.Nanosecond // 40 fabric cycles
		var worst sim.Time
		for i := range want {
			g, w := got.Vectors[i], want[i]
			if len(g.Classes) != len(w.Classes) {
				t.Fatalf("%s: vector %d class length mismatch", bench, i)
			}
			for j := range w.Classes {
				if g.Classes[j] != w.Classes[j] {
					t.Fatalf("%s: vector %d classes %v vs %v", bench, i, g.Classes, w.Classes)
				}
			}
			d := g.At - w.At
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
			if d > tol {
				t.Fatalf("%s: vector %d emission %v vs %v (Δ %v > %v)",
					bench, i, g.At, w.At, d, tol)
			}
		}
		t.Logf("%s: %d vectors, worst timing disagreement %v", bench, len(want), worst)
	}
}

func TestCycleModelMonotonicEmission(t *testing.T) {
	events, mapper := record(t, "403.gcc", 30_000)
	got, err := Run(events, Config{Mapper: mapper, Window: 3, Stride: 2, DrainThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vectors) < 10 {
		t.Fatalf("only %d vectors", len(got.Vectors))
	}
	for i := 1; i < len(got.Vectors); i++ {
		if got.Vectors[i].At < got.Vectors[i-1].At {
			t.Fatal("emission times not monotonic")
		}
		if got.Vectors[i].Seq != got.Vectors[i-1].Seq+1 {
			t.Fatal("sequence numbering broken")
		}
	}
	if got.Bytes == 0 || got.Cycles == 0 {
		t.Error("no activity recorded")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil mapper accepted")
	}
	// Empty record: terminates promptly with no vectors.
	res, err := Run(nil, Config{Mapper: igm.NewAddressMap()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vectors) != 0 {
		t.Error("vectors from an empty record")
	}
}

// TestFullPathCoSimulationAgreesWithMCM drives the cycle model's vector
// stream through the same admission/service rules as internal/mcm and
// checks the judgment timeline against the analytic module fed the same
// vectors: same accepted count, same drop count, Done times within the
// trace-path tolerance.
func TestFullPathCoSimulationAgreesWithMCM(t *testing.T) {
	events, mapper := record(t, "458.sjeng", 50_000)
	cfg := Config{Mapper: mapper, Window: 4, Stride: 8, DrainThreshold: 64}

	// A deterministic "engine": service cost varies with the window so
	// queueing patterns are non-trivial.
	service := func(w []int32) (int64, error) {
		var s int64 = 900
		for _, c := range w {
			s += int64(c % 7)
		}
		return s, nil
	}
	_, judged, drops, err := RunWithEngine(events, cfg, EngineConfig{
		Service: service, TXWrites: 6, RXReads: 3, FIFODepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(judged) < 20 {
		t.Fatalf("only %d judgments", len(judged))
	}

	// Analytic reference: the same vectors through mcm.MCM.
	eng := &timedEngine{window: cfg.Window, service: service}
	mod, err := mcm.New(mcm.Config{Engine: eng, FIFODepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := analyticVectors(events, cfg)
	var wantDone []sim.Time
	var wantDrops int64
	for _, v := range want {
		rec, ok, err := mod.Push(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			wantDrops++
			continue
		}
		wantDone = append(wantDone, rec.Done)
	}
	if int64(len(judged)) != int64(len(wantDone)) || drops != wantDrops {
		t.Fatalf("cycle model judged %d (drops %d), analytic %d (drops %d)",
			len(judged), drops, len(wantDone), wantDrops)
	}
	const tol = 60 * 8 * sim.Nanosecond
	for i := range judged {
		d := judged[i].Done - wantDone[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("judgment %d done %v vs %v (Δ %v)", i, judged[i].Done, wantDone[i], d)
		}
	}
}

// timedEngine adapts a service function to the mcm.Engine contract.
type timedEngine struct {
	window  int
	service func([]int32) (int64, error)
}

func (e *timedEngine) Name() string { return "timed" }
func (e *timedEngine) Window() int  { return e.window }
func (e *timedEngine) Infer(w []int32) (kernels.Judgment, int64, error) {
	c, err := e.service(w)
	return kernels.Judgment{}, c, err
}
func (e *timedEngine) InferBatch(ws [][]int32) ([]kernels.Judgment, []int64, error) {
	return kernels.InferLoop(e, ws)
}
