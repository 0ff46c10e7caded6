package core

import (
	"runtime"
	"testing"

	"rtad/internal/kernels"
)

// liveHeap reports the heap still in use after a full collection: the least
// of three readings, so garbage allocated by a concurrently running
// goroutine between a collection and its reading does not count.
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

// TestSessionMemoryConstant streams over 500k judgments through one
// trace-input session whose caller consumes them after every feed, and
// requires the live heap to stay flat after warm-up: a monitor that runs
// forever must not keep a judgment history.
func TestSessionMemoryConstant(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	stream := captureStream(t, "458.sjeng", 400_000)
	s, err := Open(Deployments{dep},
		WithConfig(PipelineConfig{Stride: 8, Backend: kernels.BackendNativeCalibrated}),
		WithTraceInput(100_000))
	if err != nil {
		t.Fatal(err)
	}
	judged, feeds := 0, 0
	feedUntil := func(n int) {
		for judged < n {
			if err := s.FeedTrace(stream); err != nil {
				t.Fatal(err)
			}
			judged += len(s.Results())
			feeds++
		}
	}
	const warm, measured = 20_000, 500_000
	feedUntil(warm)
	base, baseJudged := liveHeap(), judged
	feedUntil(warm + measured)
	grown := liveHeap() - base
	// The session must be live at the reading, or the collector frees it
	// with whatever it kept.
	runtime.KeepAlive(s)
	t.Logf("%d feeds, %d judgments; live heap %+d B over the last %d (%.1f B per judgment)",
		feeds, judged, grown, judged-baseJudged, float64(grown)/float64(judged-baseJudged))
	if grown > 1<<20 {
		t.Fatalf("live heap grew by %.1f MB over %d consumed judgments", float64(grown)/(1<<20), judged-baseJudged)
	}
}
