package attack

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/workload"
)

// recordPool records events into a new pool.
func recordPool(events ...cpu.BranchEvent) *Pool {
	p := &Pool{}
	for _, ev := range events {
		p.BranchRetired(ev)
	}
	return p
}

func makePool(n int) *Pool {
	evs := make([]cpu.BranchEvent, n)
	for i := range evs {
		evs[i] = cpu.BranchEvent{
			Cycle: int64(i * 10), PC: 0x8000 + uint32(i)*4,
			Target: 0x9000 + uint32(i%32)*4, Kind: cpu.KindDirect, Taken: true,
		}
	}
	return recordPool(evs...)
}

func victimEvents(n int) []cpu.BranchEvent {
	evs := make([]cpu.BranchEvent, n)
	for i := range evs {
		evs[i] = cpu.BranchEvent{
			Seq: int64(i), Cycle: int64(100 + i*20),
			PC: 0x8100, Target: 0x8200, Kind: cpu.KindDirect, Taken: true,
		}
	}
	return evs
}

func TestInjectionSplicesBurst(t *testing.T) {
	var got []cpu.BranchEvent
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		got = append(got, ev)
		return 0
	})
	inj, err := New(Config{TriggerBranch: 5, BurstLen: 10, Pool: makePool(64)}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range victimEvents(20) {
		inj.BranchRetired(ev)
	}
	if !inj.Fired() {
		t.Fatal("attack did not fire")
	}
	if len(got) != 30 {
		t.Fatalf("downstream saw %d events, want 20 victim + 10 injected", len(got))
	}
	// Monotonic cycle stamps throughout the spliced stream.
	for i := 1; i < len(got); i++ {
		if got[i].Cycle < got[i-1].Cycle {
			t.Fatalf("cycle order broken at %d: %d < %d", i, got[i].Cycle, got[i-1].Cycle)
		}
	}
	// Victim events after the burst are shifted by the burst's duration:
	// ten events, 8 cycles apart.
	last := got[len(got)-1]
	wantShift := int64(10 * 8)
	if last.Cycle != 100+19*20+wantShift {
		t.Errorf("final victim event at cycle %d, want %d", last.Cycle, 100+19*20+wantShift)
	}
	// The burst's events come from the pool, whose PCs all differ from
	// the victim's.
	var injected int
	for _, ev := range got {
		if ev.PC != 0x8100 {
			injected++
		}
	}
	if injected != 10 {
		t.Errorf("%d injected events downstream, want 10", injected)
	}
}

func TestInjectedEventsAreLegitimate(t *testing.T) {
	pool := makePool(16)
	legit := map[uint32]bool{}
	for i := 0; i < pool.Len(); i++ {
		legit[pool.At(i).Target] = true
	}
	var burst []cpu.BranchEvent
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		if ev.PC != 0x8100 { // not a victim event
			burst = append(burst, ev)
		}
		return 0
	})
	inj, _ := New(Config{TriggerBranch: 1, BurstLen: 30, Pool: pool, Seed: 3}, sink)
	for _, ev := range victimEvents(5) {
		inj.BranchRetired(ev)
	}
	if len(burst) != 30 {
		t.Fatalf("burst length %d", len(burst))
	}
	for _, ev := range burst {
		if !legit[ev.Target] {
			t.Fatalf("injected target %#x not in the legitimate pool", ev.Target)
		}
	}
}

func TestSegmentReplayIsContiguous(t *testing.T) {
	pool := makePool(100)
	var burst []cpu.BranchEvent
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		if ev.PC != 0x8100 {
			burst = append(burst, ev)
		}
		return 0
	})
	inj, _ := New(Config{TriggerBranch: 0, BurstLen: 10, Pool: pool, Segment: true, Seed: 9}, sink)
	for _, ev := range victimEvents(3) {
		inj.BranchRetired(ev)
	}
	for i := 1; i < len(burst); i++ {
		if burst[i].PC != burst[i-1].PC+4 {
			t.Fatalf("segment replay not contiguous at %d", i)
		}
	}
}

func TestTriggerCountsOnlyTaken(t *testing.T) {
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 { return 0 })
	inj, _ := New(Config{TriggerBranch: 3, BurstLen: 1, Pool: makePool(4)}, sink)
	nt := cpu.BranchEvent{Taken: false}
	for i := 0; i < 10; i++ {
		inj.BranchRetired(nt)
	}
	if inj.Fired() {
		t.Error("not-taken events advanced the trigger")
	}
}

func TestConfigValidation(t *testing.T) {
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 { return 0 })
	if _, err := New(Config{BurstLen: 5, Pool: makePool(1)}, nil); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := New(Config{BurstLen: 0, Pool: makePool(1)}, sink); err == nil {
		t.Error("zero burst accepted")
	}
	if _, err := New(Config{BurstLen: MaxBurstLen + 1, Pool: makePool(1)}, sink); err == nil {
		t.Error("burst above MaxBurstLen accepted")
	}
	if _, err := New(Config{BurstLen: MaxBurstLen, Pool: makePool(1)}, sink); err != nil {
		t.Errorf("burst of MaxBurstLen rejected: %v", err)
	}
	if _, err := New(Config{BurstLen: 5}, sink); err == nil {
		t.Error("empty pool accepted")
	}
}

func TestRecordPoolFiltersNotTaken(t *testing.T) {
	got := recordPool(cpu.BranchEvent{Taken: true}, cpu.BranchEvent{Taken: false}, cpu.BranchEvent{Taken: true})
	if got.Len() != 2 {
		t.Errorf("pool kept %d events, want 2", got.Len())
	}
}

func TestInjectionIntoRealWorkload(t *testing.T) {
	p, _ := workload.ByName("458.sjeng")
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Record a legitimate pool from a normal run.
	pool := &Pool{}
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: pool})
	if _, err := c.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if pool.Len() < 1000 {
		t.Fatalf("pool too small: %d", pool.Len())
	}
	// Victim run with injection.
	out := &cpu.CollectSink{}
	inj, err := New(Config{TriggerBranch: 2000, BurstLen: 500, Pool: pool, Segment: true}, out)
	if err != nil {
		t.Fatal(err)
	}
	c2 := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: inj})
	if _, err := c2.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("attack never fired")
	}
	// Stream stays monotonic through the splice.
	for i := 1; i < len(out.Events); i++ {
		if out.Events[i].Cycle < out.Events[i-1].Cycle {
			t.Fatal("cycle monotonicity broken")
		}
	}
}
