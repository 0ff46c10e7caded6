// Front-end microbenchmarks: the per-branch co-simulation hot path this
// repo's zero-allocation refactor targets, one stage at a time. Each
// benchmark asserts its steady-state allocation contract (0 allocs/op)
// before timing, so a regression fails the benchmark rather than silently
// shifting numbers; the CI perf-smoke job runs them at -benchtime 1x for
// exactly that check. The assembled per-branch chain is timed by
// BenchmarkTracePipelineChain{Fused,Staged} in internal/core/alloc_test.go.
package rtad

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
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
// counted trace chain uses.
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

// BenchmarkFrontendDecode measures the PTM stream decoder's two entry
// points on one stream in ns per byte: feedbyte is FeedByte, the packet-
// at-a-time form IGM's trace-analyzer units use, and scan is NextBranch,
// the slice scan of the trace-replay front. The stream is a branch-broadcast
// capture of taken branches to cycleTargets(0x8000), so every compressed
// length occurs, with atoms between them, a syscall exception packet every
// 64 events and the default periodic syncs.
func BenchmarkFrontendDecode(b *testing.B) {
	targets := cycleTargets(0x8000)
	e := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	next := 0
	for i := range 65536 {
		ev := cpu.BranchEvent{PC: 0x8000, Kind: cpu.KindDirect, Taken: i%4 != 0}
		switch {
		case !ev.Taken:
		case i%64 == 1:
			ev.Target, ev.Kind = cpu.SyscallTarget(int32(i/64%32)), cpu.KindSyscall
		default:
			ev.Target = targets[next%len(targets)]
			next++
		}
		stream = e.EncodeInto(stream, ev)
	}
	stream = e.FlushInto(stream)

	b.Run("feedbyte", func(b *testing.B) {
		d := ptm.NewStreamDecoder()
		benchDecode(b, "FeedByte", stream, func(chunk []byte) {
			for _, c := range chunk {
				d.FeedByte(c)
			}
		})
	})
	b.Run("scan", func(b *testing.B) {
		d := ptm.NewStreamDecoder()
		benchDecode(b, "NextBranch", stream, func(chunk []byte) {
			for len(chunk) > 0 {
				n, _, _, ok := d.NextBranch(chunk)
				if !ok {
					break
				}
				chunk = chunk[n:]
			}
		})
	})
}

// benchDecode times decode over stream, handed to it in chunks of up to
// 256 bytes the way a client's chunks reach FeedTrace and wrapping around at
// the end, in ns per byte. It warms up and asserts that decode allocates
// nothing first.
func benchDecode(b *testing.B, what string, stream []byte, decode func(chunk []byte)) {
	off := 0
	run := func(n int) {
		for n > 0 {
			k := min(n, len(stream)-off, 256)
			decode(stream[off : off+k])
			n -= k
			if off += k; off == len(stream) {
				off = 0
			}
		}
	}
	run(4096)
	assertZeroAlloc(b, what, func() { run(256) })
	b.SetBytes(1)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
