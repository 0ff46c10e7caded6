package igm

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// pushTrace runs branch events through the full PTM->TPIU->IGM path and
// returns the vectors plus the IGM.
func pushTrace(t *testing.T, g *IGM, events []cpu.BranchEvent) []Vector {
	t.Helper()
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	port := ptm.NewPort(ptm.PortConfig{DrainThreshold: 16})
	fmtr := tpiu.NewFormatter(tpiu.Config{})
	var now sim.Time
	for _, ev := range events {
		now = sim.CPUClock.Duration(ev.Cycle)
		port.Push(now, enc.EncodeInto(nil, ev))
	}
	port.Push(now, enc.Flush())
	port.Flush(now)
	for _, tb := range port.TakeInto(nil) {
		fmtr.Push(tb.At, tb.B)
	}
	fmtr.Flush(now)
	for _, w := range fmtr.TakeInto(nil) {
		g.FeedWord(w)
	}
	return g.TakeInto(nil)
}

func takenBranches(targets []uint32) []cpu.BranchEvent {
	evs := make([]cpu.BranchEvent, len(targets))
	for i, tgt := range targets {
		evs[i] = cpu.BranchEvent{Cycle: int64(i * 10), PC: 0x8000, Target: tgt, Kind: cpu.KindDirect, Taken: true}
	}
	return evs
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
	vecs := pushTrace(t, g, takenBranches(targets))

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
	if st.DecErrors != 0 {
		t.Errorf("decode errors: %d", st.DecErrors)
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
	vecs := pushTrace(t, g, takenBranches(targets))
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
	if got := sim.FabricClock.Duration(mapperCycles + vecEncodeCycles); got != 16*sim.Nanosecond {
		t.Errorf("IVG latency = %v, want 16ns", got)
	}
}

func TestSyscallPipelineForELM(t *testing.T) {
	m := NewAddressMap()
	m.AddSyscalls()
	g := New(Config{Mapper: m, Window: 4})

	var evs []cpu.BranchEvent
	// Interleave syscalls with direct branches that must be filtered.
	nums := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	cyc := int64(0)
	for _, n := range nums {
		cyc += 100
		evs = append(evs, cpu.BranchEvent{Cycle: cyc, PC: 0x8000, Target: 0x8004, Kind: cpu.KindDirect, Taken: true})
		cyc += 100
		evs = append(evs, cpu.BranchEvent{Cycle: cyc, PC: 0x8008, Target: cpu.SyscallTarget(n), Kind: cpu.KindSyscall, Taken: true})
	}
	vecs := pushTrace(t, g, evs)
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
	pushTrace(t, g, takenBranches([]uint32{0x8000, 0x8000, 0x8000}))
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
	vecs := pushTrace(t, g, takenBranches(targets))
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
// wedge the IGM — errors are counted and decoding resumes at the next
// a-sync (the hardware's realignment behaviour).
func TestTraceCorruptionRecovery(t *testing.T) {
	m := NewAddressMap()
	targets := make([]uint32, 64)
	for i := range targets {
		targets[i] = 0x8000 + uint32(i%8)*4
		m.Add(targets[i])
	}
	g := New(Config{Mapper: m, Window: 1})

	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true, SyncEvery: 16})
	fmtr := tpiu.NewFormatter(tpiu.Config{})
	var now sim.Time
	half := len(targets) / 2
	push := func(bytes []byte) {
		for _, b := range bytes {
			fmtr.Push(now, b)
		}
	}
	for i, tgt := range targets {
		now = sim.Time(i*100) * sim.Nanosecond
		ev := cpu.BranchEvent{Cycle: int64(i * 25), PC: 0x8000, Target: tgt, Kind: cpu.KindDirect, Taken: true}
		push(enc.EncodeInto(nil, ev))
		if i == half {
			// Corruption: a burst of junk that is not valid PFT.
			push([]byte{0xFF, 0x80, 0xFF, 0x55, 0x80})
		}
	}
	push(enc.Flush())
	fmtr.Flush(now)
	for _, w := range fmtr.TakeInto(nil) {
		g.FeedWord(w)
	}
	st := g.Stats()
	if st.DecErrors == 0 {
		t.Fatal("corruption not flagged")
	}
	// Most branches still decode: everything before the junk, plus
	// everything after the next periodic sync.
	if st.Accepted < int64(len(targets)*3/4) {
		t.Errorf("only %d/%d branches recovered after corruption", st.Accepted, len(targets))
	}
}
