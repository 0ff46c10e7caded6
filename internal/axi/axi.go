// Package axi models the RTAD SoC's interconnect: an ARM NIC-301-style
// AMBA AXI switch connecting bus masters (the host CPU, the MCM TX/RX
// engines) to address-mapped slaves (shared DDR, ML-MIAOW's internal
// memory, peripheral registers). The model is transaction-level: a master
// issues a read or write burst and receives the time the transaction
// completes, with per-slave arbitration (one outstanding burst per slave),
// address-decode and arbitration latency at the switch, and per-beat data
// transfer at the fabric clock.
//
// The MCM's TX/RX engines master this interconnect (≈ 6 fabric cycles per
// single-beat register write into ML-MIAOW's SRAM window with the default
// topology): data-movement costs are derived from an actual interconnect
// rather than asserted, and the software-baseline copy path of Fig 7
// (CPU-driven word-at-a-time writes, each paying decode + accept) is slow
// for a structural reason the model exhibits directly.
package axi

import (
	"fmt"
	"sort"

	"rtad/internal/sim"
)

// BurstKind distinguishes reads from writes.
type BurstKind uint8

// Burst kinds.
const (
	Read BurstKind = iota
	Write
)

// String names the kind.
func (k BurstKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Slave describes one address-mapped target.
type Slave struct {
	Name string
	// Base and Size define the decoded address window (bytes).
	Base, Size uint32
	// AcceptCycles is the slave-side setup cost per burst (command
	// acceptance, bank activation for DRAM-like targets).
	AcceptCycles int64
	// BeatCycles is the data-beat cost: cycles per 32-bit beat once the
	// burst is streaming.
	BeatCycles int64
}

// Contains reports whether addr decodes to this slave.
func (s *Slave) Contains(addr uint32) bool {
	return addr >= s.Base && addr-s.Base < s.Size
}

// MaxBurstBeats is the longest burst the switch accepts (AXI3's 16-beat
// limit, which NIC-301 enforces).
const MaxBurstBeats = 16

// Interconnect is the switch instance.
type Interconnect struct {
	clock  *sim.Clock
	slaves []*Slave
	// busyUntil serialises each slave's data channel.
	busyUntil []sim.Time
	// DecodeCycles is the switch's address-decode + arbitration latency.
	DecodeCycles int64

	stats Stats
}

// Stats counts interconnect activity.
type Stats struct {
	Bursts    int64
	Beats     int64
	WaitTime  sim.Time // time bursts spent waiting for busy slaves
	DecodeErr int64    // accesses that decoded to no slave
}

// New returns an interconnect on the given clock (nil = sim.FabricClock).
func New(clock *sim.Clock) *Interconnect {
	if clock == nil {
		clock = sim.FabricClock
	}
	return &Interconnect{clock: clock, DecodeCycles: 2}
}

// AddSlave registers a target; windows must not overlap.
func (ic *Interconnect) AddSlave(s Slave) (*Slave, error) {
	if s.Size == 0 {
		return nil, fmt.Errorf("axi: slave %s has zero window", s.Name)
	}
	if s.BeatCycles <= 0 {
		s.BeatCycles = 1
	}
	for _, ex := range ic.slaves {
		if s.Base < ex.Base+ex.Size && ex.Base < s.Base+s.Size {
			return nil, fmt.Errorf("axi: slave %s overlaps %s", s.Name, ex.Name)
		}
	}
	sl := &Slave{}
	*sl = s
	ic.slaves = append(ic.slaves, sl)
	ic.busyUntil = append(ic.busyUntil, 0)
	sort.SliceStable(ic.slaves, func(i, j int) bool { return ic.slaves[i].Base < ic.slaves[j].Base })
	return sl, nil
}

// Decode resolves addr to its slave.
func (ic *Interconnect) Decode(addr uint32) (*Slave, bool) {
	for _, s := range ic.slaves {
		if s.Contains(addr) {
			return s, true
		}
	}
	return nil, false
}

// Stats returns the activity counters.
func (ic *Interconnect) Stats() Stats { return ic.stats }

// slaveIndex finds the arbitration slot of s.
func (ic *Interconnect) slaveIndex(s *Slave) int {
	for i, x := range ic.slaves {
		if x == s {
			return i
		}
	}
	return -1
}

// Transaction issues one burst of beats 32-bit beats to addr at time at and
// returns the completion time. Bursts longer than MaxBurstBeats are split
// by the switch, paying the slave's accept cost per fragment.
func (ic *Interconnect) Transaction(kind BurstKind, at sim.Time, addr uint32, beats int) (sim.Time, error) {
	if beats <= 0 {
		return at, fmt.Errorf("axi: empty %v burst at %#x", kind, addr)
	}
	s, ok := ic.Decode(addr)
	if !ok {
		ic.stats.DecodeErr++
		return at, fmt.Errorf("axi: %v to unmapped address %#x", kind, addr)
	}
	if end := uint64(addr) + uint64(beats)*4; end > uint64(s.Base)+uint64(s.Size) {
		ic.stats.DecodeErr++
		return at, fmt.Errorf("axi: %v burst at %#x (%d beats) crosses out of %s", kind, addr, beats, s.Name)
	}
	idx := ic.slaveIndex(s)
	t := ic.clock.NextEdge(at) + ic.clock.Duration(ic.DecodeCycles)
	for beats > 0 {
		n := beats
		if n > MaxBurstBeats {
			n = MaxBurstBeats
		}
		beats -= n
		// Arbitration: wait for the slave's data channel.
		if ic.busyUntil[idx] > t {
			ic.stats.WaitTime += ic.busyUntil[idx] - t
			t = ic.busyUntil[idx]
		}
		t += ic.clock.Duration(s.AcceptCycles + int64(n)*s.BeatCycles)
		ic.busyUntil[idx] = t
		ic.stats.Bursts++
		ic.stats.Beats += int64(n)
	}
	return t, nil
}

// SingleBeatSeries models a CPU-driven uncached copy: count individual
// single-beat writes, each paying decode + accept (no burst amortisation) —
// the reason the Fig 7 software path's copy step dominates. It returns the
// completion time of the last write.
func (ic *Interconnect) SingleBeatSeries(kind BurstKind, at sim.Time, addr uint32, count int) (sim.Time, error) {
	t := at
	var err error
	for i := 0; i < count; i++ {
		t, err = ic.Transaction(kind, t, addr+uint32(4*i), 1)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// RTADTopology builds the SoC of Fig 1: shared DDR behind the NIC-301, the
// ML-MIAOW internal SRAM, and the MCM control registers.
func RTADTopology() (*Interconnect, error) {
	ic := New(nil)
	slaves := []Slave{
		{Name: "ddr", Base: 0x0000_0000, Size: 0x4000_0000, AcceptCycles: 10, BeatCycles: 2},
		{Name: "mlmiaow-sram", Base: MLMIAOWBase, Size: 0x0010_0000, AcceptCycles: 3, BeatCycles: 1},
		{Name: "mcm-regs", Base: MCMRegsBase, Size: 0x0000_1000, AcceptCycles: 1, BeatCycles: 1},
	}
	for _, s := range slaves {
		if _, err := ic.AddSlave(s); err != nil {
			return nil, err
		}
	}
	return ic, nil
}

// MLMIAOWBase is the engine SRAM window base in RTADTopology.
const MLMIAOWBase uint32 = 0x4000_0000

// MCMRegsBase is the MCM register window base in RTADTopology.
const MCMRegsBase uint32 = 0x4010_0000
