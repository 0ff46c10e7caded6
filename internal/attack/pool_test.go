package attack

import (
	"slices"
	"strings"
	"testing"

	"rtad/internal/cpu"
)

func TestPoolCodesDistinctTuples(t *testing.T) {
	evs := []cpu.BranchEvent{
		{PC: 0x10, Target: 0x20, Kind: cpu.KindDirect, Taken: true},
		{PC: 0x30, Target: 0x40, Kind: cpu.KindReturn, Taken: true},
		{PC: 0x10, Target: 0x20, Kind: cpu.KindDirect, Taken: true, Cycle: 9, Seq: 9},
		{PC: 0x30, Target: 0x44, Kind: cpu.KindReturn, Taken: true},
		{PC: 0x30, Target: 0x40, Kind: cpu.KindIndirect, Taken: true},
	}
	p := recordPool(evs...)
	if got, want := p.Index(), []uint16{0, 1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("index %v, want %v", got, want)
	}
	for i, ev := range evs {
		if got, want := p.At(i), (Entry{PC: ev.PC, Target: ev.Target, Kind: ev.Kind}); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestPoolRejectsOverflow(t *testing.T) {
	p := &Pool{}
	for i := 0; i < MaxPoolEntries; i++ {
		p.BranchRetired(cpu.BranchEvent{PC: uint32(i) * 4, Target: 0x100, Taken: true})
	}
	if err := p.Err(); err != nil {
		t.Fatalf("%d distinct tuples rejected: %v", MaxPoolEntries, err)
	}
	p.BranchRetired(cpu.BranchEvent{PC: 0x100, Target: 0x100, Kind: cpu.KindCall, Taken: true})
	if p.Err() == nil {
		t.Fatalf("tuple %d accepted", MaxPoolEntries+1)
	}
	if len(p.Table()) != MaxPoolEntries || p.Len() != MaxPoolEntries {
		t.Errorf("table %d entries, %d events after overflow", len(p.Table()), p.Len())
	}
}

func TestNewPoolValidation(t *testing.T) {
	two := []Entry{{PC: 1}, {PC: 2}}
	for _, tc := range []struct {
		name  string
		table []Entry
		index []uint16
		want  string // error substring; "" accepts
	}{
		{name: "valid", table: two, index: []uint16{1, 0, 1}},
		{name: "empty_table", index: []uint16{0}, want: "pool table of 0 entries"},
		{name: "oversized_table", table: make([]Entry, MaxPoolEntries+1), index: []uint16{0}, want: "want 1..65536"},
		{name: "no_events", table: two, want: "records no events"},
		{name: "index_out_of_table", table: two, index: []uint16{0, 2}, want: "event 1 names entry 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(tc.table, tc.index)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if p.Len() != len(tc.index) || p.At(0) != tc.table[tc.index[0]] {
					t.Errorf("rebuilt pool does not read back its index")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
