package ptm

import (
	"runtime"
	"testing"

	"rtad/internal/cpu"
)

// liveHeap reports the heap still in use after a full collection: the least
// of three readings, so garbage allocated between a collection and its
// reading does not count.
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

// TestOverheadSinkMemoryConstant retires a million branches into the Fig 6
// sink and requires the live heap to stay flat after warm-up: the sink
// only prices trace collection, so it must not keep the trace.
func TestOverheadSinkMemoryConstant(t *testing.T) {
	sink := NewOverheadSink()
	var cycle int64
	retire := func(n int) {
		for i := 0; i < n; i++ {
			cycle += 20
			sink.BranchRetired(cpu.BranchEvent{
				PC: 0x8000, Target: 0x8000 + uint32(cycle%64)*4,
				Kind: cpu.KindDirect, Taken: true, Cycle: cycle,
			})
		}
	}
	const warm, measured = 20_000, 1_000_000
	retire(warm)
	base := liveHeap()
	retire(measured)
	grown := liveHeap() - base
	// The sink must be live at the reading, or the collector frees it
	// with whatever it kept.
	runtime.KeepAlive(sink)
	t.Logf("live heap %+d B over %d branches (%.2f B per branch)",
		grown, measured, float64(grown)/measured)
	if grown > 1<<20 {
		t.Fatalf("live heap grew by %.1f MB over %d branches", float64(grown)/(1<<20), measured)
	}
}
