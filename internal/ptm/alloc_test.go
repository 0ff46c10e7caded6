package ptm

import (
	"testing"

	"rtad/internal/cpu"
)

// TestEncodeIntoSteadyStateZeroAlloc pins the encoder's hot-path contract:
// recycling the destination buffer encodes every event without allocating,
// including across periodic-sync boundaries.
func TestEncodeIntoSteadyStateZeroAlloc(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	var buf []byte
	var cycle int64
	ev := func(target uint32) cpu.BranchEvent {
		cycle += 10
		return cpu.BranchEvent{PC: 0x8000, Target: target, Kind: cpu.KindDirect, Taken: true, Cycle: cycle}
	}
	// Warm-up grows buf past the largest sync+branch burst.
	for i := 0; i < 2048; i++ {
		buf = e.EncodeInto(buf[:0], ev(0x8000+uint32(i%64)*4))
	}
	allocs := testing.AllocsPerRun(500, func() {
		buf = e.EncodeInto(buf[:0], ev(0x8000+uint32(cycle%64)*4))
	})
	if allocs > 0 {
		t.Fatalf("EncodeInto allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestFeedByteZeroAlloc checks the decoder consumes a representative stream
// (syncs, branches, atoms) without allocating.
func TestFeedByteZeroAlloc(t *testing.T) {
	// Build a stream with every packet family.
	e := NewEncoder(Config{BranchBroadcast: false, SyncEvery: 32})
	var stream []byte
	var cycle int64
	for i := 0; i < 4096; i++ {
		cycle += 10
		taken := i%3 != 0
		kind := cpu.KindDirect
		if i%17 == 0 {
			kind = cpu.KindIndirect
		}
		stream = e.EncodeInto(stream, cpu.BranchEvent{
			PC: 0x8000, Target: 0x8000 + uint32(i%128)*4, Kind: kind, Taken: taken, Cycle: cycle,
		})
	}
	stream = e.FlushInto(stream)

	d := NewStreamDecoder()
	i := 0
	var pkts int
	allocs := testing.AllocsPerRun(len(stream)-1, func() {
		if _, ok := d.FeedByte(stream[i]); ok {
			pkts++
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("FeedByte allocates %.2f objects/op, want 0", allocs)
	}
	if pkts == 0 {
		t.Fatal("no packets decoded — the path under test did not run")
	}
}
