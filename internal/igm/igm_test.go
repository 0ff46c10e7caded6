package igm

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// pushTrace hands g the decoded branch targets the way its caller does:
// frames 100 ns apart, each completing one non-branch packet and up to
// four branch packets, every branch looked up in g's mapper. It returns
// the emitted vectors.
func pushTrace(g *IGM, targets []uint32) []Vector {
	var at sim.Time
	for i := 0; i < len(targets); i += 4 {
		at += 100 * sim.Nanosecond
		decodeAt := g.FrameArrived(at)
		g.PacketDecoded()
		for _, addr := range targets[i:min(i+4, len(targets))] {
			class, ok := g.cfg.Mapper.Lookup(addr)
			g.BranchDecoded(decodeAt, addr, class, ok)
		}
	}
	return g.TakeInto(nil)
}

func TestAddressMapBasics(t *testing.T) {
	m := NewAddressMap()
	a := m.Add(0x8000)
	b := m.Add(0x8004)
	if a == b {
		t.Error("distinct addresses share a class")
	}
	if again := m.Add(0x8000); again != a {
		t.Error("re-adding changed the class")
	}
	if _, ok := m.Lookup(0x9000); ok {
		t.Error("unregistered address passed the filter")
	}
	if got, ok := m.Lookup(0x8004); !ok || got != b {
		t.Error("lookup of registered address failed")
	}
	if m.Size() != 2 {
		t.Errorf("Size = %d, want 2", m.Size())
	}
}

func TestAddressMapSyscalls(t *testing.T) {
	m := NewAddressMap()
	m.AddSyscalls()
	id, ok := m.Lookup(cpu.SyscallTarget(5))
	if !ok {
		t.Fatal("syscall filtered")
	}
	if id != SyscallClass(5) {
		t.Errorf("class = %d, want %d", id, SyscallClass(5))
	}
	// Branch classes and syscall classes must not collide.
	br := m.Add(0x8000)
	if br == id {
		t.Error("branch class collides with syscall class")
	}
}

func TestAddressMapCapacity(t *testing.T) {
	m := NewAddressMap()
	for i := 0; i < MaxMapEntries; i++ {
		m.Add(uint32(i * 4))
	}
	defer func() {
		if recover() == nil {
			t.Error("exceeding CAM capacity did not panic")
		}
	}()
	m.Add(0xFFFFFF0)
}

func TestFilteringAndWindow(t *testing.T) {
	m := NewAddressMap()
	cA := m.Add(0x8000)
	cB := m.Add(0x8010)
	g := New(Config{Mapper: m, Window: 3})

	targets := []uint32{0x8000, 0x9999 &^ 3, 0x8010, 0x8000, 0x8010, 0x8010}
	vecs := pushTrace(g, targets)

	// 5 accepted (0x9998 filtered); window fills after 3 -> 3 vectors.
	st := g.Stats()
	if st.Accepted != 5 || st.Filtered != 1 {
		t.Errorf("accepted=%d filtered=%d, want 5/1", st.Accepted, st.Filtered)
	}
	if len(vecs) != 3 {
		t.Fatalf("got %d vectors, want 3", len(vecs))
	}
	want := [][]int32{{cA, cB, cA}, {cB, cA, cB}, {cA, cB, cB}}
	for i, v := range vecs {
		if len(v.Classes) != 3 {
			t.Fatalf("vector %d length %d", i, len(v.Classes))
		}
		for j := range want[i] {
			if v.Classes[j] != want[i][j] {
				t.Errorf("vector %d = %v, want %v", i, v.Classes, want[i])
			}
		}
	}
}

func TestVectorTimingMonotonicAndPipelined(t *testing.T) {
	m := NewAddressMap()
	targets := make([]uint32, 64)
	for i := range targets {
		targets[i] = 0x8000 + uint32(i%8)*4
		m.Add(targets[i])
	}
	g := New(Config{Mapper: m, Window: 1})
	vecs := pushTrace(g, targets)
	if len(vecs) != len(targets) {
		t.Fatalf("got %d vectors, want %d", len(vecs), len(targets))
	}
	for i := 1; i < len(vecs); i++ {
		if vecs[i].At < vecs[i-1].At {
			t.Fatal("vector times not monotonic")
		}
		// P2S serialises to at most one vector per fabric cycle.
		if vecs[i].At-vecs[i-1].At < sim.FabricClock.Period() {
			t.Fatalf("vectors %d and %d closer than one cycle", i-1, i)
		}
	}
	if vecs[0].Seq != 0 || vecs[1].Seq != 1 {
		t.Error("sequence numbers wrong")
	}
}

func TestVectorGenerationLatencyIsTwoCyclesPastSerialiser(t *testing.T) {
	// The paper's step (2): IGM turns a decoded address into a vector in
	// 2 cycles (16 ns at 125 MHz).
	if got := sim.FabricClock.Duration(VectorizeCycles); got != 16*sim.Nanosecond {
		t.Errorf("IVG latency = %v, want 16ns", got)
	}
}

func TestSyscallPipelineForELM(t *testing.T) {
	m := NewAddressMap()
	m.AddSyscalls()
	g := New(Config{Mapper: m, Window: 4})

	var targets []uint32
	// Interleave syscalls with direct branches that must be filtered.
	nums := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	for _, n := range nums {
		targets = append(targets, 0x8004, cpu.SyscallTarget(n))
	}
	vecs := pushTrace(g, targets)
	if len(vecs) != len(nums)-3 {
		t.Fatalf("got %d vectors, want %d", len(vecs), len(nums)-3)
	}
	last := vecs[len(vecs)-1]
	want := []int32{SyscallClass(9), SyscallClass(2), SyscallClass(6)}
	got := last.Classes[1:]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("final window = %v", last.Classes)
		}
	}
	if st := g.Stats(); st.Filtered != int64(len(nums)) {
		t.Errorf("filtered %d, want %d direct branches", st.Filtered, len(nums))
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewAddressMap()
	m.Add(0x8000)
	g := New(Config{Mapper: m, Window: 1})
	pushTrace(g, []uint32{0x8000, 0x8000, 0x8000})
	st := g.Stats()
	if st.Words == 0 || st.Packets == 0 {
		t.Error("word/packet counters not advancing")
	}
	if st.Branches != 3 || st.Vectors != 3 {
		t.Errorf("branches=%d vectors=%d, want 3/3", st.Branches, st.Vectors)
	}
}

func TestStridePacing(t *testing.T) {
	m := NewAddressMap()
	targets := make([]uint32, 40)
	for i := range targets {
		targets[i] = 0x8000 + uint32(i%4)*4
		m.Add(targets[i])
	}
	g := New(Config{Mapper: m, Window: 4, Stride: 8})
	vecs := pushTrace(g, targets)
	// Window fills at event 4 (first emission), then every 8th accepted.
	if len(vecs) != 5 {
		t.Fatalf("got %d vectors, want 5 (first fill + 4 strides)", len(vecs))
	}
	if vecs[0].AcceptedIdx != 4 {
		t.Errorf("first vector AcceptedIdx = %d, want 4", vecs[0].AcceptedIdx)
	}
	for i := 1; i < len(vecs); i++ {
		if vecs[i].AcceptedIdx-vecs[i-1].AcceptedIdx != 8 {
			t.Errorf("stride between vectors %d and %d is %d, want 8",
				i-1, i, vecs[i].AcceptedIdx-vecs[i-1].AcceptedIdx)
		}
	}
}

func TestAddressMapEntriesRoundTrip(t *testing.T) {
	m := NewAddressMap()
	m.AddSyscalls()
	a := m.Add(0x8000)
	b := m.Add(0x9000)
	entries := m.Entries()
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	clone := NewAddressMapFromEntries(entries, m.HasSyscalls())
	if got, ok := clone.Lookup(0x8000); !ok || got != a {
		t.Error("entry 0x8000 lost")
	}
	if got, ok := clone.Lookup(0x9000); !ok || got != b {
		t.Error("entry 0x9000 lost")
	}
	if !clone.HasSyscalls() {
		t.Error("syscall flag lost")
	}
	// Classes added after reconstruction must not collide.
	c := clone.Add(0xA000)
	if c == a || c == b {
		t.Error("new class collides with restored classes")
	}
}

// Failure injection: garbage bytes spliced into the port stream must not
// wedge the IGM's trace analyzer — the decoder counts the errors and
// realigns at the next a-sync (the hardware's realignment behaviour), and
// the IGM goes on accepting branches. The stream is cut into frames and
// each frame's packets are handed over as the byte-level reference chain
// does: FrameArrived, then PacketDecoded or BranchDecoded per packet.
func TestTraceCorruptionRecovery(t *testing.T) {
	m := NewAddressMap()
	targets := make([]uint32, 64)
	for i := range targets {
		targets[i] = 0x8000 + uint32(i%8)*4
		m.Add(targets[i])
	}
	g := New(Config{Mapper: m, Window: 1})

	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true, SyncEvery: 16})
	var stream []byte
	half := len(targets) / 2
	for i, tgt := range targets {
		ev := cpu.BranchEvent{Cycle: int64(i * 25), PC: 0x8000, Target: tgt, Kind: cpu.KindDirect, Taken: true}
		stream = enc.EncodeInto(stream, ev)
		if i == half {
			// Corruption: a burst of junk that is not valid PFT.
			stream = append(stream, 0xFF, 0x80, 0xFF, 0x55, 0x80)
		}
	}
	stream = enc.FlushInto(stream)

	dec := ptm.NewStreamDecoder()
	var at sim.Time
	for len(stream) > 0 {
		n := min(len(stream), tpiu.PayloadBytes)
		at += 100 * sim.Nanosecond
		decodeAt := g.FrameArrived(at)
		for _, b := range stream[:n] {
			pkt, ok := dec.FeedByte(b)
			if !ok {
				continue
			}
			if pkt.Type != ptm.PktBranch {
				g.PacketDecoded()
				continue
			}
			class, accepted := m.Lookup(pkt.Addr)
			g.BranchDecoded(decodeAt, pkt.Addr, class, accepted)
		}
		stream = stream[n:]
	}
	if dec.Errors == 0 {
		t.Fatal("corruption not flagged")
	}
	// Most branches still decode: everything before the junk, plus
	// everything after the next periodic sync.
	st := g.Stats()
	if st.Accepted < int64(len(targets)*3/4) {
		t.Errorf("only %d/%d branches recovered after corruption", st.Accepted, len(targets))
	}
	vecs := g.TakeInto(nil)
	if len(vecs) != int(st.Accepted) || vecs[len(vecs)-1].Addr != targets[len(targets)-1] {
		t.Errorf("%d vectors for %d accepted branches; decoding did not resume to the last branch", len(vecs), st.Accepted)
	}
}
