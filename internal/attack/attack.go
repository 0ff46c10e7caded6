// Package attack emulates the paper's attack model (§IV-C): at a chosen
// point in the victim's execution, a burst of *legitimate* branch events —
// addresses that do occur during normal execution, replayed out of their
// normal context — is inserted into the retired-branch stream, the way
// control-flow-manipulating exploits (ROP-style chains, data-only attacks)
// execute legitimate code in attacker-chosen order. Inserting arbitrary
// addresses would be trivial to detect; legitimate-but-resequenced data is
// the hard case the detector must catch.
package attack

import (
	"fmt"
	"math/rand"

	"rtad/internal/cpu"
)

// MaxBurstLen bounds Config.BurstLen. A burst is pushed through the sink
// chain one event at a time inside a single retirement, so its length is
// the work one victim branch can trigger; 2^20 events is 32× the classic
// 32768-event experiment burst.
const MaxBurstLen = 1 << 20

// Config parameterises an injection.
type Config struct {
	// TriggerBranch fires the attack after this many retired taken
	// transfers of the victim.
	TriggerBranch int64
	// BurstLen is the number of legitimate events replayed, 1..MaxBurstLen.
	BurstLen int
	// SpacingCycles is the CPU-cycle gap between injected events (the
	// attacker's gadget chain executes at normal machine speed).
	SpacingCycles int64
	// Pool is the legitimate-event reservoir, typically recorded from an
	// earlier normal run of the same binary.
	Pool *Pool
	// Segment replays a contiguous pool segment (mimicry-style replay of
	// a gadget trace) instead of independently sampled events.
	Segment bool
	// Repeat fires the attack again every RepeatEvery victim taken
	// transfers after the first burst — a low-and-slow campaign rather
	// than a single hit. Zero means one burst.
	Repeat      int
	RepeatEvery int64
	Seed        int64
}

// Injector wraps a downstream cpu.Sink. Until the trigger it forwards the
// victim's events untouched; at the trigger it splices the burst in and
// shifts all subsequent victim events forward in time by the burst's
// duration (inserted events execute on the CPU, so they consume real time).
type Injector struct {
	cfg  Config
	next cpu.Sink
	rng  *rand.Rand

	takenSeen   int64
	cycleOffset int64
	seqOffset   int64
	fired       bool
	bursts      int
	nextTrigger int64

	// InjectedAtCycle is the (pre-offset) CPU cycle of the first injected
	// event; InjectedEvents counts taken injected transfers.
	InjectedAtCycle int64
	InjectedEvents  int64
}

// New validates cfg and wraps next.
func New(cfg Config, next cpu.Sink) (*Injector, error) {
	if next == nil {
		return nil, fmt.Errorf("attack: nil downstream sink")
	}
	if cfg.BurstLen <= 0 || cfg.BurstLen > MaxBurstLen {
		return nil, fmt.Errorf("attack: burst length %d outside 1..%d", cfg.BurstLen, MaxBurstLen)
	}
	if cfg.Pool == nil || cfg.Pool.Len() == 0 {
		return nil, fmt.Errorf("attack: empty legitimate-event pool")
	}
	if cfg.SpacingCycles <= 0 {
		cfg.SpacingCycles = 8
	}
	return &Injector{cfg: cfg, next: next, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Fired reports whether the attack has been injected.
func (in *Injector) Fired() bool { return in.fired }

// BranchRetired implements cpu.Sink.
func (in *Injector) BranchRetired(ev cpu.BranchEvent) int64 {
	if ev.Taken {
		in.takenSeen++
		if in.bursts == 0 && in.takenSeen > in.cfg.TriggerBranch {
			in.fire(ev)
		} else if in.bursts > 0 && in.bursts <= in.cfg.Repeat && in.takenSeen > in.nextTrigger {
			in.fire(ev)
		}
	}
	ev.Cycle += in.cycleOffset
	ev.Seq += in.seqOffset
	// The victim stalls while the attacker's chain runs, so any stall the
	// sink requests applies to the victim as usual.
	return in.next.BranchRetired(ev)
}

// fire injects one burst at the current event and arms the next repeat.
func (in *Injector) fire(ev cpu.BranchEvent) {
	if !in.fired {
		in.fired = true
		in.InjectedAtCycle = ev.Cycle
	}
	in.bursts++
	if in.cfg.RepeatEvery > 0 {
		in.nextTrigger = in.takenSeen + in.cfg.RepeatEvery
	} else {
		in.nextTrigger = 1 << 62
	}
	in.inject(ev.Cycle+in.cycleOffset, ev.Seq+in.seqOffset)
}

// inject replays the burst starting at the given cycle. Every pool event is
// a taken transfer, so every injected event is one.
func (in *Injector) inject(cycle, seq int64) {
	pool := in.cfg.Pool
	n := pool.Len()
	start := 0
	if in.cfg.Segment {
		if n > in.cfg.BurstLen {
			start = in.rng.Intn(n - in.cfg.BurstLen)
		}
	}
	for k := 0; k < in.cfg.BurstLen; k++ {
		var src Entry
		if in.cfg.Segment {
			src = pool.At((start + k) % n)
		} else {
			src = pool.At(in.rng.Intn(n))
		}
		in.next.BranchRetired(cpu.BranchEvent{
			Seq:    seq + int64(k),
			Cycle:  cycle + int64(k)*in.cfg.SpacingCycles,
			PC:     src.PC,
			Target: src.Target,
			Kind:   src.Kind,
			Taken:  true,
		})
	}
	in.InjectedEvents += int64(in.cfg.BurstLen)
	in.cycleOffset += int64(in.cfg.BurstLen) * in.cfg.SpacingCycles
	in.seqOffset += int64(in.cfg.BurstLen)
}
