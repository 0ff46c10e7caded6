package serve

import (
	"runtime"
	"sync/atomic"
	"testing"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/registry"
	"rtad/internal/workload"
)

// liveHeap reports the heap still in use after a full collection: the least
// of three readings, so garbage the serving goroutines allocate between a
// collection and its reading does not count.
func liveHeap() int64 {
	var least uint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return int64(least)
}

// TestServedSessionMemoryConstant streams over 200k judgments through one
// served session while a canary at fraction 1.0 shadow-judges the same bytes
// in a second session, and requires the process's live heap to stay flat
// after warm-up. The client counts judgments without keeping them, so any
// growth is the server's.
func TestServedSessionMemoryConstant(t *testing.T) {
	depA, _ := fixtures(t)
	depB := fixturesB(t)
	p, _ := workload.ByName(fixBench)
	stream, err := core.CaptureTrace(p, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(nil)
	srv.Deploy(depA)
	addr := serveLoopback(t, srv)
	cand, err := srv.Registry().Register(depB, registry.Meta{Origin: "test:memory"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().StartCanary(depKey(fixBench, "lstm"), cand.ID(), 1.0); err != nil {
		t.Fatal(err)
	}

	var got atomic.Int64
	c, err := Dial(addr, Hello{
		Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated,
		Stride: 8, GapCycles: 100_000,
	}, func(Judgment) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Small chunks keep the server's queued trace bytes, which the heap
	// readings also see, far below the bound.
	const chunk = 4096
	off := 0
	sendUntil := func(n int64) {
		for got.Load() < n {
			end := min(off+chunk, len(stream))
			if err := c.Send(stream[off:end]); err != nil {
				t.Fatal(err)
			}
			off = end % len(stream)
		}
	}
	const warm, measured = 20_000, 200_000
	sendUntil(warm)
	base, baseJudged := liveHeap(), got.Load()
	sendUntil(warm + measured)
	grown := liveHeap() - base
	live := srv.Sessions()
	if len(live) != 1 {
		t.Fatalf("%d live sessions at the reading, want 1", len(live))
	}
	judged := got.Load() - baseJudged
	t.Logf("%d judgments, %d shadow judgments; live heap %+d B over the last %d (%.1f B per judgment)",
		live[0].Judged, live[0].ShadowJudged, grown, judged, float64(grown)/float64(judged))
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if live[0].ShadowJudged < measured {
		t.Errorf("the canary shadow judged only %d vectors", live[0].ShadowJudged)
	}
	if grown > 1<<20 {
		t.Fatalf("live heap grew by %.1f MB over %d served judgments", float64(grown)/(1<<20), judged)
	}
}
