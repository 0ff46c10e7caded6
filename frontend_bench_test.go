// Front-end microbenchmarks: the per-branch co-simulation hot path this
// repo's zero-allocation refactor targets, one stage at a time. Each
// benchmark asserts its steady-state allocation contract (0 allocs/op)
// before timing, so a regression fails the benchmark rather than silently
// shifting numbers; the CI perf-smoke job runs them at -benchtime 1x for
// exactly that check. The assembled per-branch chain is timed by
// BenchmarkTracePipelineChain{Fused,Staged} in tracepipeline_bench_test.go.
package rtad

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// assertZeroAlloc fails the benchmark if fn allocates in steady state.
// It runs outside the timed region.
func assertZeroAlloc(b *testing.B, what string, fn func()) {
	b.Helper()
	if allocs := testing.AllocsPerRun(200, fn); allocs > 0 {
		b.Fatalf("%s allocates %.2f objects/op in steady state, want 0", what, allocs)
	}
}

// BenchmarkFrontendEncode measures the PTM packetisation hot path:
// EncodeInto with a recycled buffer, branch-broadcast configuration,
// crossing periodic-sync boundaries.
func BenchmarkFrontendEncode(b *testing.B) {
	e := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var buf []byte
	var cycle int64
	next := func() cpu.BranchEvent {
		cycle += 10
		return cpu.BranchEvent{
			PC: 0x8000, Target: 0x8000 + uint32(cycle%64)*4,
			Kind: cpu.KindDirect, Taken: true, Cycle: cycle,
		}
	}
	for i := 0; i < 4096; i++ { // warm-up: settle buffer capacity
		buf = e.EncodeInto(buf[:0], next())
	}
	assertZeroAlloc(b, "EncodeInto", func() { buf = e.EncodeInto(buf[:0], next()) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.EncodeInto(buf[:0], next())
	}
}

// BenchmarkFrontendDecode measures the byte-at-a-time PTM decoder on a
// representative mixed stream (address packets, atoms, periodic syncs).
func BenchmarkFrontendDecode(b *testing.B) {
	e := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	var cycle int64
	for i := 0; i < 65536; i++ {
		cycle += 10
		stream = e.EncodeInto(stream, cpu.BranchEvent{
			PC: 0x8000, Target: 0x8000 + uint32(i%128)*4,
			Kind: cpu.KindDirect, Taken: i%4 != 0, Cycle: cycle,
		})
	}
	d := ptm.NewStreamDecoder()
	i := 0
	feed := func() {
		d.FeedByte(stream[i])
		i++
		if i == len(stream) {
			i = 0
		}
	}
	for j := 0; j < 4096; j++ { // warm-up
		feed()
	}
	assertZeroAlloc(b, "FeedByte", feed)
	b.ReportAllocs()
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		feed()
	}
	b.SetBytes(1)
}

// BenchmarkFrontendScheduler measures the dominant scheduling pattern —
// post at now+Δ, pop immediately — which stays entirely in the scheduler's
// monotone fast lane.
func BenchmarkFrontendScheduler(b *testing.B) {
	s := sim.NewScheduler()
	nop := func() {}
	for i := 0; i < 4096; i++ { // warm-up: settle lane capacity
		s.After(8, nop)
		s.Step()
	}
	assertZeroAlloc(b, "schedule+step", func() {
		s.After(8, nop)
		s.Step()
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(8, nop)
		s.Step()
	}
}

// BenchmarkFrontendFormatter measures TPIU frame packing plus the word
// hand-off through a recycled TakeInto buffer.
func BenchmarkFrontendFormatter(b *testing.B) {
	f := tpiu.NewFormatter(tpiu.Config{})
	var out []tpiu.TimedWord
	var at sim.Time
	frame := func() {
		for i := 0; i < tpiu.PayloadBytes; i++ {
			at += 1000
			f.Push(at, byte(i))
		}
		out = f.TakeInto(out[:0])
	}
	for i := 0; i < 256; i++ { // warm-up
		frame()
	}
	assertZeroAlloc(b, "frame+TakeInto", frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
	b.SetBytes(tpiu.PayloadBytes)
}
