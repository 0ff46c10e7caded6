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

// cycleTargets walks from base flipping one address bit per step, in
// address chunks 0–4 in turn and twice over, so it ends back at base and
// consecutive branch packets to its targets carry 1, 2, 3, 4 and 5 address
// bytes.
func cycleTargets(base uint32) []uint32 {
	var out []uint32
	t := base
	for range 2 {
		for _, bit := range []uint{2, 8, 15, 22, 29} {
			t ^= 1 << bit
			out = append(out, t)
		}
	}
	return out
}

// BenchmarkFrontendEncode measures PTM packetisation in both forms on the
// same events (branch-broadcast configuration, every compressed length,
// crossing periodic-sync boundaries): bytes is EncodeInto with a recycled
// buffer, counted is EncodeCounted with a recycled mark slice, the form the
// fused trace path uses.
func BenchmarkFrontendEncode(b *testing.B) {
	b.Run("bytes", func(b *testing.B) {
		e := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
		var buf []byte
		benchEncode(b, "EncodeInto", func(ev cpu.BranchEvent) { buf = e.EncodeInto(buf[:0], ev) })
	})
	b.Run("counted", func(b *testing.B) {
		e := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
		var marks []ptm.PacketMark
		benchEncode(b, "EncodeCounted", func(ev cpu.BranchEvent) { marks, _ = e.EncodeCounted(marks[:0], ev) })
	})
}

// benchEncode feeds encode taken branches to cycleTargets(0x8000): it warms
// up, asserts encode allocates nothing, then times it.
func benchEncode(b *testing.B, what string, encode func(cpu.BranchEvent)) {
	var evs []cpu.BranchEvent
	for _, t := range cycleTargets(0x8000) {
		evs = append(evs, cpu.BranchEvent{PC: 0x8000, Target: t, Kind: cpu.KindDirect, Taken: true})
	}
	next := 0
	step := func() {
		encode(evs[next])
		if next++; next == len(evs) {
			next = 0
		}
	}
	for i := 0; i < 4096; i++ { // warm-up: settle buffer capacity
		step()
	}
	assertZeroAlloc(b, what, step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
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
