// Package igm implements RTAD's Input Generation Module (§III-A, Fig 2):
// the hardware block between the CoreSight trace port and the ML computing
// module. It contains the trace analyzer (four TA units decoding the PTM
// byte stream, one byte per unit per cycle), the parallel-to-serial
// converter (a 32-bit word can decode into as many as four branch
// addresses, which must be serialised), and the input vector generator —
// an address mapper that passes only addresses present in a configurable
// lookup table, and a vector encoder that turns the surviving class IDs
// into the input-vector format of the target ML model. The IGM times the
// trace analyzer; its caller hands it each arriving frame and the packets
// the frame completes (FrameArrived, PacketDecoded, BranchDecoded).
package igm

import (
	"fmt"
	"sort"

	"rtad/internal/cpu"
	"rtad/internal/obs"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// MaxMapEntries bounds the address-mapper lookup table, which in hardware
// is a fixed-capacity CAM.
const MaxMapEntries = 1024

// syscallClassBase is where syscall service classes start in the class ID
// space, above any branch-address classes.
const syscallClassBase = MaxMapEntries

// mapSlots is the initial open-addressed table size: the next power of two
// with load factor <= 0.5 at the full 1024-entry CAM capacity, so linear
// probes stay short and termination is guaranteed.
const mapSlots = 2048

// AddressMap is the IGM lookup table: branch target address -> class ID.
// Users configure it with the branches their model cares about — system
// calls, critical API entry points, or (for general-branch models like the
// LSTM) the frequent branch targets of the monitored program.
//
// The table is a flat open-addressed array (multiplicative hash, linear
// probing) rather than a Go map: Lookup sits on the per-taken-branch hot
// path and the CAM it models is a fixed 1024-entry structure, so two
// parallel arrays beat the map's hashing and bucket indirection.
type AddressMap struct {
	addrs    []uint32 // probed keys; meaningful only where slots[i] != 0
	slots    []int32  // class ID + 1; 0 marks an empty slot (so addr 0 is storable)
	shift    uint     // 32 - log2(len(slots)): multiplicative hash keeps the top bits
	count    int
	next     int32
	syscalls bool
}

// NewAddressMap returns an empty table.
func NewAddressMap() *AddressMap {
	return &AddressMap{
		addrs: make([]uint32, mapSlots),
		slots: make([]int32, mapSlots),
		shift: 21,
	}
}

// find probes for addr, returning the index of its slot (occupied with
// addr) or of the empty slot where it would be inserted.
func (m *AddressMap) find(addr uint32) int {
	mask := len(m.slots) - 1
	i := int((addr * 2654435761) >> m.shift)
	for m.slots[i] != 0 && m.addrs[i] != addr {
		i = (i + 1) & mask
	}
	return i
}

// insert places class at slot i (which find located for addr), growing the
// table when the load factor would exceed 1/2.
func (m *AddressMap) insert(i int, addr uint32, class int32) {
	m.addrs[i] = addr
	m.slots[i] = class + 1
	m.count++
	if m.count*2 > len(m.slots) {
		m.grow()
	}
}

// grow doubles the table and rehashes every entry. With Add capped at
// MaxMapEntries this never fires for the hardware CAM; it only serves
// NewAddressMapFromEntries round-tripping an oversized synthetic table.
func (m *AddressMap) grow() {
	oldAddrs, oldSlots := m.addrs, m.slots
	n := len(oldSlots) * 2
	m.addrs = make([]uint32, n)
	m.slots = make([]int32, n)
	m.shift--
	m.count = 0
	for i, s := range oldSlots {
		if s != 0 {
			j := m.find(oldAddrs[i])
			m.addrs[j] = oldAddrs[i]
			m.slots[j] = s
			m.count++
		}
	}
}

// Add registers addr and returns its class ID; re-adding returns the
// existing ID. It panics when the CAM capacity is exceeded — a static
// configuration error, not a runtime condition.
func (m *AddressMap) Add(addr uint32) int32 {
	i := m.find(addr)
	if s := m.slots[i]; s != 0 {
		return s - 1
	}
	if m.count >= MaxMapEntries {
		panic(fmt.Sprintf("igm: address map exceeds %d entries", MaxMapEntries))
	}
	id := m.next
	m.next++
	m.insert(i, addr, id)
	return id
}

// AddSyscalls admits every kernel service entry (the ELM configuration).
// Service n maps to class syscallClassBase+n, independent of branch classes.
func (m *AddressMap) AddSyscalls() { m.syscalls = true }

// Lookup resolves addr to a class ID; ok is false for filtered addresses.
func (m *AddressMap) Lookup(addr uint32) (int32, bool) {
	if m.syscalls && addr >= cpu.SyscallBase {
		return int32(syscallClassBase) + cpu.SyscallNumber(addr), true
	}
	if s := m.slots[m.find(addr)]; s != 0 {
		return s - 1, true
	}
	return 0, false
}

// SyscallClass converts a service number to its class ID, for callers
// preparing training data consistent with the hardware mapping.
func SyscallClass(n int32) int32 { return int32(syscallClassBase) + n }

// Size reports configured branch entries (excluding the syscall range).
func (m *AddressMap) Size() int { return m.count }

// Vector is one generated ML input: the sliding window of the most recent
// accepted class IDs (oldest first), stamped with the time the vector
// encoder finished producing it.
type Vector struct {
	At  sim.Time
	Seq int64
	// AcceptedIdx is the 1-based ordinal (among mapper-accepted events) of
	// the event that completed this vector. The SoC layer uses it to
	// recover the completing branch's retirement time for latency
	// measurements (Fig 8 anchors on the branch the judgment is about).
	AcceptedIdx int64
	Addr        uint32  // the branch that completed this vector
	Classes     []int32 // length = Config.Window
}

// Config parameterises the IGM.
type Config struct {
	Mapper *AddressMap
	// Window is the input-vector length in class IDs. The vector encoder
	// emits a vector per accepted event once the window has filled.
	Window int
	// Stride paces emission: a vector is produced every Stride-th
	// accepted event (after the window fills). 1 — the default — emits on
	// every accepted event; larger strides subsample dense streams so the
	// inference engine's service rate can keep up (the conversion-table
	// configuration knob of §III-A).
	Stride int
	// Telemetry, when non-nil, records emitted vectors as instants on the
	// fabric/igm track plus accept/filter/vector counters. Observation-only.
	Telemetry *obs.Telemetry
}

// Pipeline latencies in IGM cycles of the fabric clock (sim.FabricClock).
// Decode is the TA unit latency; the mapper and encoder stages give the
// two-cycle vector-generation figure the paper reports for step (2) of
// Fig 7.
const (
	taDecodeCycles  = 1
	mapperCycles    = 1
	vecEncodeCycles = 1

	// VectorizeCycles is the IVG's latency from a decoded branch to its
	// vector: the mapper stage plus the encoder stage.
	VectorizeCycles = mapperCycles + vecEncodeCycles
)

// IGM is the module instance.
type IGM struct {
	cfg Config
	// win is the sliding window as a fixed-capacity ring (hardware shift
	// register): winHd indexes the oldest element once winN == Window, so
	// sliding is one store instead of a copy.
	win       []int32
	winHd     int
	winN      int
	free      [][]int32 // recycled Classes buffers (see Recycle)
	out       []Vector
	maxOut    int
	seq       int64
	sinceEmit int
	// serFreeAt is when the P2S serialiser frees up: decoded addresses
	// from the four TA units leave it one per cycle.
	serFreeAt sim.Time

	stats Stats

	obsAccepted *obs.Counter
	obsFiltered *obs.Counter
	obsVectors  *obs.Counter
	track       *obs.Track
}

// Stats counts IGM activity for the evaluation harness.
type Stats struct {
	Words    int64 // 32-bit port words consumed
	Packets  int64 // trace packets decoded
	Branches int64 // branch-address packets seen
	Accepted int64 // addresses passing the mapper
	Filtered int64 // addresses rejected by the mapper
	Vectors  int64 // vectors emitted
}

// New returns an IGM with cfg applied.
func New(cfg Config) *IGM {
	if cfg.Mapper == nil {
		cfg.Mapper = NewAddressMap()
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	g := &IGM{
		cfg: cfg,
		win: make([]int32, cfg.Window),
	}
	if tel := cfg.Telemetry; tel != nil {
		g.obsAccepted = tel.Counter("rtad_igm_accepted_total")
		g.obsFiltered = tel.Counter("rtad_igm_filtered_total")
		g.obsVectors = tel.Counter("rtad_igm_vectors_total")
		g.track = tel.Track("fabric", "igm")
	}
	return g
}

// p2s serialises one decoded address out of the parallel-to-serial
// converter: one address per cycle leaves it.
func (g *IGM) p2s(decodeAt sim.Time) sim.Time {
	at := decodeAt
	if g.serFreeAt > at {
		at = g.serFreeAt
	}
	g.serFreeAt = at + sim.FabricClock.Period()
	return at
}

// admit runs a mapper-accepted class through the vector-encoder stage:
// window update, stride pacing, and vector emission.
func (g *IGM) admit(at sim.Time, addr uint32, class int32) {
	g.stats.Accepted++
	g.obsAccepted.Inc()
	at += sim.FabricClock.Duration(VectorizeCycles)

	if g.winN < g.cfg.Window {
		// Fill phase: winHd stays 0 until the window first fills, so the
		// write lands at the plain winN offset.
		g.win[g.winN] = class
		g.winN++
	} else {
		g.win[g.winHd] = class
		g.winHd++
		if g.winHd == g.cfg.Window {
			g.winHd = 0
		}
	}
	if g.winN < g.cfg.Window {
		return
	}
	g.sinceEmit++
	if g.sinceEmit < g.cfg.Stride && g.seq > 0 {
		return
	}
	g.sinceEmit = 0
	classes := g.classBuf()
	// Oldest-first snapshot: the ring's tail segment then its head segment.
	n := copy(classes, g.win[g.winHd:])
	copy(classes[n:], g.win[:g.winHd])
	vec := Vector{
		At: at, Seq: g.seq, AcceptedIdx: g.stats.Accepted,
		Addr: addr, Classes: classes,
	}
	g.seq++
	g.stats.Vectors++
	g.obsVectors.Inc()
	if g.track != nil {
		g.track.Instant("vector", int64(at), map[string]any{"seq": vec.Seq})
	}
	g.out = append(g.out, vec)
	if len(g.out) > g.maxOut {
		g.maxOut = len(g.out)
	}
}

// FrameArrived accounts one frame delivery: the four port words of a frame
// whose last word lands at lastWordAt. The four TA units decode the
// frame's payload in parallel, so it returns the instant the payload
// finishes TA decode — the decode timestamp shared by every packet the
// frame completes.
func (g *IGM) FrameArrived(lastWordAt sim.Time) sim.Time {
	g.stats.Words += tpiu.FrameBytes / 4
	return lastWordAt + sim.FabricClock.Duration(taDecodeCycles)
}

// PacketDecoded accounts one non-branch packet (a-sync, i-sync, atoms, ...)
// completed by a frame: only the decoded-packet count advances.
func (g *IGM) PacketDecoded() { g.stats.Packets++ }

// BranchDecoded accounts one branch-address packet completing at
// decodeAt. The caller has already looked addr up in the mapper (the
// counted chain resolves each taken branch's class once, at retire time),
// so the IGM only applies the P2S and (for accepted addresses) the
// mapper/encoder latencies.
func (g *IGM) BranchDecoded(decodeAt sim.Time, addr uint32, class int32, accepted bool) {
	g.stats.Packets++
	g.stats.Branches++
	at := g.p2s(decodeAt)
	if !accepted {
		g.stats.Filtered++
		g.obsFiltered.Inc()
		return
	}
	g.admit(at, addr, class)
}

// StageName identifies the IGM in pipeline stage listings.
func (g *IGM) StageName() string { return "igm" }

// QueueStats reports the emitted-but-unconsumed vector queue as a uniform
// snapshot. The IGM never drops vectors (the mapper *filters* addresses,
// which is selection, not overflow), so Overflows and Dropped are 0 and
// Accepted counts emitted vectors.
func (g *IGM) QueueStats() sim.QueueStats {
	return sim.QueueStats{Len: len(g.out), MaxDepth: g.maxOut, Accepted: g.stats.Vectors}
}

// classBuf returns a Window-length buffer for a new vector's Classes,
// reusing a recycled one when available.
func (g *IGM) classBuf() []int32 {
	if n := len(g.free); n > 0 {
		buf := g.free[n-1]
		g.free = g.free[:n-1]
		return buf[:g.cfg.Window]
	}
	return make([]int32, g.cfg.Window)
}

// Recycle returns a Vector's Classes buffer to the IGM for reuse by a later
// vector. Callers that are done with a vector (after copying or translating
// its window) can recycle it to make vector emission allocation-free in
// steady state; callers that retain Classes simply never call Recycle.
// The buffer must not be used after recycling.
func (g *IGM) Recycle(classes []int32) {
	if cap(classes) < g.cfg.Window {
		return
	}
	g.free = append(g.free, classes)
}

// TakeInto appends the emitted vectors to dst, clears the internal queue
// (retaining its capacity for reuse), and returns the extended slice. A
// caller that recycles dst (`vecs = ig.TakeInto(vecs[:0])`) drains the IGM
// with zero steady-state allocations.
func (g *IGM) TakeInto(dst []Vector) []Vector {
	dst = append(dst, g.out...)
	for i := range g.out {
		g.out[i] = Vector{}
	}
	g.out = g.out[:0]
	return dst
}

// Stats returns the activity counters.
func (g *IGM) Stats() Stats { return g.stats }

// Entry is one serialisable lookup-table row.
type Entry struct {
	Addr  uint32
	Class int32
}

// Entries exports the table contents (branch rows only; the syscall range
// is a flag, not rows), sorted by class for determinism.
func (m *AddressMap) Entries() []Entry {
	out := make([]Entry, 0, m.count)
	for i, s := range m.slots {
		if s != 0 {
			out = append(out, Entry{Addr: m.addrs[i], Class: s - 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// HasSyscalls reports whether the syscall range is admitted.
func (m *AddressMap) HasSyscalls() bool { return m.syscalls }

// NewAddressMapFromEntries reconstructs a table from exported rows,
// preserving the original class IDs (later duplicates of an address win,
// as with the previous map-backed table).
func NewAddressMapFromEntries(entries []Entry, syscalls bool) *AddressMap {
	m := NewAddressMap()
	m.syscalls = syscalls
	for _, e := range entries {
		if i := m.find(e.Addr); m.slots[i] != 0 {
			m.slots[i] = e.Class + 1
		} else {
			m.insert(i, e.Addr, e.Class)
		}
		if e.Class >= m.next {
			m.next = e.Class + 1
		}
	}
	return m
}
