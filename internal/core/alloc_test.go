package core

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/obs"
)

// feedBranches drives n synthetic taken branches to target through the
// pipeline's cpu.Sink interface, advancing the cycle counter so every stage
// sees monotone time.
func feedBranches(p *Pipeline, cycle *int64, n int, target uint32, kind cpu.Kind) {
	for i := 0; i < n; i++ {
		*cycle += 20
		p.BranchRetired(cpu.BranchEvent{
			PC: 0x8000, Target: target, Kind: kind, Taken: true, Cycle: *cycle,
		})
	}
}

// TestFrontendSteadyStateZeroAlloc is the counted chain's allocation
// contract: once warm, a retired branch whose target the mapper filters —
// the common case, since the IGM table admits only the monitored addresses
// — must drive the whole encode → port → frame → map path without a single
// heap allocation.
func TestFrontendSteadyStateZeroAlloc(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	p, err := newPipeline(dep, PipelineConfig{CUs: 5, Stride: 256, Backend: "native-calibrated"}, wiring{})
	if err != nil {
		t.Fatal(err)
	}
	// 0xDEAD0000 is outside the program image, so the mapper filters it.
	const filtered = 0xDEAD0000
	if _, ok := dep.Mapper.Lookup(filtered); ok {
		t.Fatal("test address unexpectedly mapped")
	}
	var cycle int64
	// Warm-up: grow every stage buffer to steady state, cross several
	// periodic-sync boundaries (SyncEvery=256) and port drains.
	feedBranches(p, &cycle, 20000, filtered, cpu.KindDirect)

	allocs := testing.AllocsPerRun(200, func() {
		feedBranches(p, &cycle, 64, filtered, cpu.KindDirect)
	})
	if allocs > 0 {
		t.Fatalf("steady-state front-end allocates %.2f objects per 64 branches, want 0", allocs)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if p.ig.Stats().Filtered == 0 {
		t.Fatal("no branches reached the mapper — the path under test did not run")
	}
}

// TestTelemetryOffJudgmentPathAllocs pins the telemetry guard in drain: with
// Telemetry nil the judgment-recording block must be skipped entirely, so a
// judged vector allocates no telemetry objects (no counter work, no latency
// conversion, no trace-instant argument map). The test compares per-judgment
// allocations against an identical pipeline with a tracer attached, which
// must pay extra for exactly those objects.
func TestTelemetryOffJudgmentPathAllocs(t *testing.T) {
	dep := trainELMDeployment(t, "400.perlbench")

	build := func(tel *obs.Telemetry) *Pipeline {
		p, err := newPipeline(dep, PipelineConfig{CUs: 5, Backend: "native-calibrated"}, wiring{tel: tel})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	measure := func(p *Pipeline) float64 {
		var cycle int64
		// Syscall branches pass the ELM mapper, so each one (after the
		// window fills) emits a vector and produces a judgment.
		feedBranches(p, &cycle, 4096, cpu.SyscallTarget(3), cpu.KindSyscall)
		before := len(p.judged)
		const batch = 64
		allocs := testing.AllocsPerRun(50, func() {
			feedBranches(p, &cycle, batch, cpu.SyscallTarget(3), cpu.KindSyscall)
		})
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
		if len(p.judged) <= before {
			t.Fatal("no judgments produced — the path under test did not run")
		}
		return allocs
	}

	off := build(nil)
	if off.obsJudgments != nil || off.latHist != nil || off.judgTrack != nil {
		t.Fatal("telemetry-off pipeline holds telemetry objects")
	}
	offAllocs := measure(off)

	tel := obs.New()
	on := build(tel)
	if on.judgTrack == nil {
		t.Fatal("tracer pipeline missing judgment track — comparison is vacuous")
	}
	onAllocs := measure(on)

	if offAllocs >= onAllocs {
		t.Fatalf("telemetry-off batch allocates %.1f objects, tracer-on %.1f: the guard is not skipping telemetry work",
			offAllocs, onAllocs)
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

// chainBench drives Pipeline.BranchRetired with mapper-filtered targets
// (the common case) on the counted chain or the reference, asserting the
// per-branch zero-alloc contract before timing, so CI's -benchtime 1x pass
// catches an allocation on the hot path. The targets cycle through every
// compressed branch-packet length, 1 to 5 address bytes.
func chainBench(b *testing.B, ref bool) {
	dep := trainLSTMDeployment(b, "458.sjeng")
	p, err := newPipeline(dep, PipelineConfig{
		CUs: 5, Stride: 256, Backend: "native-calibrated", StagedTrace: ref,
	}, wiring{})
	if err != nil {
		b.Fatal(err)
	}
	filtered := cycleTargets(0xDEAD0000)
	for _, t := range filtered {
		if _, ok := dep.Mapper.Lookup(t); ok {
			b.Fatalf("benchmark target %#x is mapped", t)
		}
	}
	ev := cpu.BranchEvent{PC: 0x8000, Kind: cpu.KindDirect, Taken: true}
	next := 0
	branch := func() {
		ev.Cycle += 20
		ev.Target = filtered[next]
		if next++; next == len(filtered) {
			next = 0
		}
		p.BranchRetired(ev)
	}
	for i := 0; i < 20000; i++ { // warm-up: settle every stage buffer
		branch()
	}
	if allocs := testing.AllocsPerRun(200, branch); allocs > 0 {
		b.Fatalf("BranchRetired(filtered) allocates %.2f objects/op in steady state, want 0", allocs)
	}
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
// counted chain (the default): counted encoder → counted port → counted
// formatter → IGM direct delivery.
func BenchmarkTracePipelineChainFused(b *testing.B) { chainBench(b, false) }

// BenchmarkTracePipelineChainStaged is the same stream on the byte/word
// reference (reference.go): byte encoding → per-byte port release →
// byte-at-a-time framing → frame reassembly → packet re-decode. perfbench
// runs the reference for every detect cell, so its cost is bounded here.
func BenchmarkTracePipelineChainStaged(b *testing.B) { chainBench(b, true) }
