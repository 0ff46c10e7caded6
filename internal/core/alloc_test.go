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

// TestFrontendSteadyStateZeroAlloc is the tentpole's allocation contract:
// once warm, a retired branch whose target the mapper filters — the common
// case, since the IGM table admits only the monitored addresses — must drive
// the whole encode → port → frame → deframe → decode → map path without a
// single heap allocation.
func TestFrontendSteadyStateZeroAlloc(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	p, err := NewPipeline(dep, PipelineConfig{CUs: 5, Stride: 256, Backend: "native-calibrated"})
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
	if p.IGMStats().Filtered == 0 {
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
