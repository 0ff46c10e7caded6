// Trace-pipeline microbenchmarks: the counted PTM→TPIU→IGM chain, stage
// by stage. Like frontend_bench_test.go, every benchmark asserts its
// steady-state allocation contract (0 allocs/op) before the timed loop, so
// the CI perf-smoke job's -benchtime 1x pass catches a regression on the
// per-branch hot path — including the Fig 6 OverheadSink collection path.
//
// The whole chain is measured by internal/core's
// BenchmarkTracePipelineChainFused, and the byte/word reference by
// BenchmarkTracePipelineChainStaged.
package rtad

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// BenchmarkTracePipelinePort measures the port's byte accounting:
// PushCounted keeps occupancy and a departure schedule, storing no byte.
func BenchmarkTracePipelinePort(b *testing.B) {
	p := ptm.NewPort(ptm.PortConfig{})
	var at sim.Time
	push := func() {
		at += 80 * sim.Nanosecond
		p.PushCounted(at, 3)
	}
	for i := 0; i < 4096; i++ { // warm-up: cross several release thresholds
		push()
	}
	assertZeroAlloc(b, "PushCounted", push)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.SetBytes(3)
}

// BenchmarkTracePipelineFormatter measures the formatter: PushCounted
// converts a release's byte count and departure schedule straight into
// per-frame emission beats, appending into a recycled FrameEmit buffer.
func BenchmarkTracePipelineFormatter(b *testing.B) {
	f := tpiu.NewFormatter(tpiu.Config{})
	var fes []tpiu.FrameEmit
	var at sim.Time
	step := sim.FabricClock.Period()
	push := func() {
		at += 200 * sim.Nanosecond
		fes = f.PushCounted(at, step, 4, tpiu.PayloadBytes, fes[:0])
	}
	for i := 0; i < 256; i++ { // warm-up: settle the FrameEmit buffer
		push()
	}
	assertZeroAlloc(b, "PushCounted", push)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.SetBytes(tpiu.PayloadBytes)
}

// BenchmarkTracePipelineIGM measures the IGM's entry points: a frame
// arrival, a decoded branch admitted through the flat mapper into the ring
// window, and the vector hand-off with Classes recycling.
func BenchmarkTracePipelineIGM(b *testing.B) {
	mapper := igm.NewAddressMap()
	const addr = 0x8040
	mapper.Add(addr)
	class, ok := mapper.Lookup(addr)
	if !ok {
		b.Fatal("benchmark address not mapped")
	}
	g := igm.New(igm.Config{Mapper: mapper, Window: 16, Stride: 1})
	var at sim.Time
	var vecs []igm.Vector
	frame := func() {
		at += 200 * sim.Nanosecond
		decodeAt := g.FrameArrived(at)
		g.PacketDecoded() // the frame's non-branch packet (sync, atoms)
		g.BranchDecoded(decodeAt, addr, class, true)
		vecs = g.TakeInto(vecs[:0])
		for _, v := range vecs {
			g.Recycle(v.Classes)
		}
	}
	for i := 0; i < 4096; i++ { // warm-up: fill the window, pool a Classes buffer
		frame()
	}
	assertZeroAlloc(b, "FrameArrived+BranchDecoded+TakeInto", frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// BenchmarkTracePipelineOverheadSink measures the Fig 6 collection path:
// OverheadSink.BranchRetired (counted encoder into recycled marks, counted
// port push, stall accounting), as the overhead experiment runs it.
func BenchmarkTracePipelineOverheadSink(b *testing.B) {
	s := ptm.NewOverheadSink()
	var cycle int64
	branch := func() {
		cycle += 20
		s.BranchRetired(cpu.BranchEvent{
			PC: 0x8000, Target: 0x8000 + uint32(cycle%64)*4,
			Kind: cpu.KindDirect, Taken: true, Cycle: cycle,
		})
	}
	for i := 0; i < 20000; i++ { // warm-up: cross sync boundaries and drains
		branch()
	}
	assertZeroAlloc(b, "OverheadSink.BranchRetired", branch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branch()
	}
}
