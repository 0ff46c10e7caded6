// Trace-pipeline microbenchmarks: the fused analytic PTM→TPIU→IGM fast
// path introduced alongside the staged byte/word reference, stage by stage
// and end to end. Like frontend_bench_test.go, every benchmark asserts its
// steady-state allocation contract (0 allocs/op) before the timed loop, so
// the CI perf-smoke job's -benchtime 1x pass catches a regression on the
// per-branch hot path — including the Fig 6 OverheadSink collection path.
//
// The ChainFused/ChainStaged pair measures the same per-branch work on both
// trace paths; their ns/op ratio is the fused path's per-branch speedup.
package rtad

import (
	"testing"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// BenchmarkTracePipelinePort measures the fused port's byte accounting:
// PushCounted keeps occupancy and a departure schedule without ever
// materialising per-byte TimedByte records.
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

// BenchmarkTracePipelineFormatter measures the fused formatter: PushCounted
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

// BenchmarkTracePipelineIGM measures the IGM's direct entry points — the
// fused path's replacement for word feeding and re-decoding: a frame
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

// chainBench drives core.Pipeline.BranchRetired with mapper-filtered targets
// (the common case) on one trace path, asserting the per-branch zero-alloc
// contract before timing.
func chainBench(b *testing.B, staged bool) {
	dep := lstmDeployment(b)
	p, err := core.NewPipeline(dep, core.PipelineConfig{
		CUs: 5, Stride: 256, Backend: "native-calibrated", StagedTrace: staged,
	})
	if err != nil {
		b.Fatal(err)
	}
	const filtered = 0xDEAD0000
	var cycle int64
	branch := func() {
		cycle += 20
		p.BranchRetired(cpu.BranchEvent{
			PC: 0x8000, Target: filtered, Kind: cpu.KindDirect, Taken: true, Cycle: cycle,
		})
	}
	for i := 0; i < 20000; i++ { // warm-up: settle every stage buffer
		branch()
	}
	assertZeroAlloc(b, "BranchRetired(filtered)", branch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branch()
	}
	if p.Err() != nil {
		b.Fatal(p.Err())
	}
}

// BenchmarkTracePipelineChainFused is the whole per-branch front-end on the
// fused analytic path (the default): encode with packet marks → counted port
// → counted formatter → IGM direct delivery.
func BenchmarkTracePipelineChainFused(b *testing.B) { chainBench(b, false) }

// BenchmarkTracePipelineChainStaged is the same stream on the staged
// byte/word reference path: per-byte port release → byte-at-a-time framing →
// word deframing → packet re-decode.
func BenchmarkTracePipelineChainStaged(b *testing.B) { chainBench(b, true) }

// BenchmarkTracePipelineOverheadSink measures the Fig 6 collection path:
// OverheadSink.BranchRetired (recycled EncodeInto buffer, counted stall
// accounting) with the port drained through a recycled TakeInto buffer, as
// the overhead experiment does.
func BenchmarkTracePipelineOverheadSink(b *testing.B) {
	s := ptm.NewOverheadSink(ptm.Config{BranchBroadcast: true}, ptm.PortConfig{})
	var tb []ptm.TimedByte
	var cycle int64
	branch := func() {
		cycle += 20
		s.BranchRetired(cpu.BranchEvent{
			PC: 0x8000, Target: 0x8000 + uint32(cycle%64)*4,
			Kind: cpu.KindDirect, Taken: true, Cycle: cycle,
		})
		tb = s.Port.TakeInto(tb[:0])
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
