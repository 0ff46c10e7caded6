package attack

import (
	"fmt"

	"rtad/internal/cpu"
)

// Entry is one distinct legitimate transfer: everything the injector
// replays of a recorded event.
type Entry struct {
	PC     uint32
	Target uint32
	Kind   cpu.Kind
}

// MaxPoolEntries bounds a Pool's table: each event is one uint16 index.
const MaxPoolEntries = 1 << 16

// Pool is the legitimate-event reservoir in dictionary-coded form: a table
// of the distinct (PC, Target, Kind) tuples in first-seen order, plus one
// table index per recorded taken transfer. A normal run retires millions of
// taken transfers over a few hundred distinct tuples, so a pool costs two
// bytes per event where the events themselves take 32.
//
// A Pool is a cpu.Sink: a run recorded into it appends its taken transfers.
// Once recorded it is read-only, and Len and At are safe to call from any
// number of goroutines.
type Pool struct {
	table []Entry
	index []uint16
	// slots is the recording dictionary, built on the first record: an
	// open-addressed hash of the table (entry index + 1; 0 is empty) at
	// load factor at most 1/2.
	slots []uint32
	shift uint // 32 - log2(len(slots)); the hash keeps the top bits
	full  bool // a tuple beyond MaxPoolEntries was dropped
}

// NewPool rebuilds a pool from its table and index, as Table and Index
// return them. The table must hold 1..MaxPoolEntries entries, the index at
// least one event, and every index must name a table entry.
func NewPool(table []Entry, index []uint16) (*Pool, error) {
	if len(table) == 0 || len(table) > MaxPoolEntries {
		return nil, fmt.Errorf("attack: pool table of %d entries, want 1..%d", len(table), MaxPoolEntries)
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("attack: pool of %d table entries records no events", len(table))
	}
	for i, k := range index {
		if int(k) >= len(table) {
			return nil, fmt.Errorf("attack: pool event %d names entry %d of a %d-entry table", i, k, len(table))
		}
	}
	return &Pool{table: table, index: index}, nil
}

// Len returns the number of recorded events.
func (p *Pool) Len() int { return len(p.index) }

// At returns event i, 0 <= i < Len.
func (p *Pool) At(i int) Entry { return p.table[p.index[i]] }

// Table returns the distinct entries in first-seen order. The caller must
// not modify it.
func (p *Pool) Table() []Entry { return p.table }

// Index returns the table index of every recorded event in order. The
// caller must not modify it.
func (p *Pool) Index() []uint16 { return p.index }

// Err reports whether recording met more than MaxPoolEntries distinct
// tuples; the pool then lacks the events of the tuples it could not code.
func (p *Pool) Err() error {
	if p.full {
		return fmt.Errorf("attack: more than %d distinct (PC, target, kind) tuples in the pool", MaxPoolEntries)
	}
	return nil
}

// BranchRetired implements cpu.Sink: it records a taken transfer, never
// stalling the core.
func (p *Pool) BranchRetired(ev cpu.BranchEvent) int64 {
	if !ev.Taken {
		return 0
	}
	if p.slots == nil {
		p.rehash(len(p.table))
	}
	e := Entry{PC: ev.PC, Target: ev.Target, Kind: ev.Kind}
	i := p.find(e)
	k := p.slots[i]
	if k == 0 {
		if len(p.table) == MaxPoolEntries {
			p.full = true
			return 0
		}
		p.table = append(p.table, e)
		k = uint32(len(p.table))
		p.slots[i] = k
		if 2*len(p.table) > len(p.slots) {
			p.rehash(len(p.table))
		}
	}
	p.index = append(p.index, uint16(k-1))
	return 0
}

// find probes for e, returning its slot or the empty slot where it belongs.
// Only indirect transfers give one PC several targets, so at this load
// factor the first probe nearly always decides.
func (p *Pool) find(e Entry) int {
	mask := len(p.slots) - 1
	i := int(((e.PC ^ e.Target<<7 ^ uint32(e.Kind)) * 2654435761) >> p.shift)
	for k := p.slots[i]; k != 0 && p.table[k-1] != e; k = p.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// rehash sizes the dictionary for n entries at load factor at most 1/4,
// so it next grows at 1/2, and reinserts the table.
func (p *Pool) rehash(n int) {
	size, shift := 256, uint(24)
	for size < 4*n {
		size, shift = size*2, shift-1
	}
	p.slots, p.shift = make([]uint32, size), shift
	for k, e := range p.table {
		if i := p.find(e); p.slots[i] == 0 {
			p.slots[i] = uint32(k + 1)
		}
	}
}
