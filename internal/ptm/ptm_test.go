package ptm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtad/internal/cpu"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// chunkWidth is the bit width of each address chunk, low first.
var chunkWidth = [numChunks]uint{5, 7, 7, 7, 5}

// chunksToAddr joins on-wire address chunks, low first, into a target
// address: the chunk-by-chunk definition that the decoder's shift-and-mask
// assembly must agree with.
func chunksToAddr(ch [numChunks]uint32) uint32 {
	var v uint32
	shift := uint(0)
	for i := 0; i < numChunks; i++ {
		v |= ch[i] << shift
		shift += chunkWidth[i]
	}
	return v << 1
}

// addrToChunks splits addr>>1 into its on-wire chunks, the inverse of
// chunksToAddr.
func addrToChunks(addr uint32) [numChunks]uint32 {
	v := addr >> 1
	var out [numChunks]uint32
	for i := 0; i < numChunks; i++ {
		out[i] = v & (1<<chunkWidth[i] - 1)
		v >>= chunkWidth[i]
	}
	return out
}

func TestAddrChunksRoundTrip(t *testing.T) {
	prop := func(raw uint32) bool {
		addr := raw &^ 1 // addresses are at least halfword aligned
		return chunksToAddr(addrToChunks(addr)) == addr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestASyncRoundTrip(t *testing.T) {
	e := NewEncoder(Config{})
	stream := e.Start(0x8000)
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	if len(pkts) != 2 || pkts[0].Type != PktASync || pkts[1].Type != PktISync {
		t.Fatalf("prologue decoded as %+v", pkts)
	}
	if pkts[1].Addr != 0x8000 {
		t.Errorf("i-sync addr = %#x", pkts[1].Addr)
	}
}

func branchEv(pc, target uint32, kind cpu.Kind, taken bool) cpu.BranchEvent {
	return cpu.BranchEvent{PC: pc, Target: target, Kind: kind, Taken: taken}
}

func TestBranchAddressRoundTrip(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	targets := []uint32{0x8000, 0x8004, 0x8444, 0x9000, 0x8002, 0xFFFF0014, 0x8006}
	var stream []byte
	stream = append(stream, e.Start(0x8000)...)
	for _, tgt := range targets {
		stream = e.EncodeInto(stream, branchEv(0x8000, tgt, cpu.KindDirect, true))
	}
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	var got []uint32
	for _, p := range pkts {
		if p.Type == PktBranch {
			got = append(got, p.Addr)
		}
	}
	if len(got) != len(targets) {
		t.Fatalf("decoded %d branches, want %d", len(got), len(targets))
	}
	for i, want := range targets {
		if got[i] != want {
			t.Errorf("branch %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestCompressionShrinksNearbyAddresses(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	e.Start(0x8000)
	first := e.EncodeInto(nil, branchEv(0, 0x12345678&^1, cpu.KindDirect, true))
	near := e.EncodeInto(nil, branchEv(0, (0x12345678&^1)+4, cpu.KindDirect, true))
	if len(first) != maxBranchBytes {
		t.Errorf("cold branch packet = %d bytes, want %d", len(first), maxBranchBytes)
	}
	if len(near) >= len(first) {
		t.Errorf("nearby branch packet %d bytes not smaller than cold %d", len(near), len(first))
	}
	if len(near) != 1 {
		t.Errorf("delta-of-4 branch should fit one byte, got %d", len(near))
	}
}

func TestSyscallExceptionPacket(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	var stream []byte
	stream = append(stream, e.Start(0x8000)...)
	stream = e.EncodeInto(stream, branchEv(0x8010, cpu.SyscallTarget(7), cpu.KindSyscall, true))
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	last := pkts[len(pkts)-1]
	if last.Type != PktBranch || !last.Exc || last.Kind != cpu.KindSyscall {
		t.Fatalf("syscall packet decoded as %+v", last)
	}
	if cpu.SyscallNumber(last.Addr) != 7 {
		t.Errorf("service number = %d, want 7", cpu.SyscallNumber(last.Addr))
	}
}

func TestAtomsAccumulateAndFlush(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	e.Start(0x8000)
	var stream []byte
	// Three not-taken events buffer silently.
	for i := 0; i < 3; i++ {
		if out := e.EncodeInto(nil, branchEv(0x8000, 0, cpu.KindDirect, false)); len(out) != 0 {
			t.Fatalf("not-taken event %d emitted %d bytes early", i, len(out))
		}
	}
	// A taken branch must flush atoms *before* its address packet.
	stream = e.EncodeInto(nil, branchEv(0x8000, 0x9000, cpu.KindDirect, true))
	pkts, errs := DecodeAll(append(e.Start(0x0)[:0], stream...))
	_ = errs // compressed branch without baseline: decoder flags desync
	if len(pkts) < 2 || pkts[0].Type != PktAtoms || pkts[1].Type != PktBranch {
		t.Fatalf("flush ordering wrong: %+v", pkts)
	}
	if len(pkts[0].Atoms) != 3 {
		t.Errorf("flushed %d atoms, want 3", len(pkts[0].Atoms))
	}
	for i, a := range pkts[0].Atoms {
		if a {
			t.Errorf("atom %d = taken, want not-taken", i)
		}
	}
}

func TestAtomPacking(t *testing.T) {
	e := NewEncoder(Config{})
	e.Start(0x8000)
	var stream []byte
	pattern := []bool{true, false, true, true, false, true, false}
	for _, taken := range pattern {
		stream = e.EncodeInto(stream, branchEv(0x8000, 0x8100, cpu.KindDirect, taken))
	}
	stream = append(stream, e.Flush()...)
	pkts, _ := DecodeAll(stream)
	var atoms []bool
	for _, p := range pkts {
		if p.Type == PktAtoms {
			atoms = append(atoms, p.Atoms...)
		}
	}
	if len(atoms) != len(pattern) {
		t.Fatalf("decoded %d atoms, want %d", len(atoms), len(pattern))
	}
	for i := range pattern {
		if atoms[i] != pattern[i] {
			t.Errorf("atom %d = %v, want %v", i, atoms[i], pattern[i])
		}
	}
}

func TestNonBroadcastEmitsAddressesOnlyForIndirect(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: false})
	var stream []byte
	stream = append(stream, e.Start(0x8000)...)
	stream = e.EncodeInto(stream, branchEv(0x8000, 0x8800, cpu.KindDirect, true))
	stream = e.EncodeInto(stream, branchEv(0x8004, 0x8900, cpu.KindReturn, true))
	stream = append(stream, e.Flush()...)
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	var branches, atoms int
	for _, p := range pkts {
		switch p.Type {
		case PktBranch:
			branches++
			if p.Addr != 0x8900 {
				t.Errorf("indirect address = %#x, want 0x8900", p.Addr)
			}
		case PktAtoms:
			atoms += len(p.Atoms)
		}
	}
	if branches != 1 || atoms != 1 {
		t.Errorf("branches=%d atoms=%d, want 1 and 1", branches, atoms)
	}
}

func TestPeriodicSync(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true, SyncEvery: 10})
	var stream []byte
	stream = append(stream, e.Start(0x8000)...)
	for i := 0; i < 25; i++ {
		stream = e.EncodeInto(stream, branchEv(0x8000, 0x8000+uint32(i*4), cpu.KindDirect, true))
	}
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	var isyncs int
	for _, p := range pkts {
		if p.Type == PktISync {
			isyncs++
		}
	}
	if isyncs != 3 { // start + 2 periodic
		t.Errorf("i-syncs = %d, want 3", isyncs)
	}
	if e.Syncs() != 3 {
		t.Errorf("Syncs() = %d, want 3", e.Syncs())
	}
}

func TestOverflowResetsCompression(t *testing.T) {
	e := NewEncoder(Config{BranchBroadcast: true})
	var stream []byte
	stream = append(stream, e.Start(0x8000)...)
	stream = e.EncodeInto(stream, branchEv(0, 0x12340000, cpu.KindDirect, true))
	stream = append(stream, e.Overflow()...)
	post := e.EncodeInto(nil, branchEv(0, 0x12340004, cpu.KindDirect, true))
	if len(post) != maxBranchBytes {
		t.Errorf("post-overflow branch = %d bytes, want full %d", len(post), maxBranchBytes)
	}
	stream = append(stream, post...)
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	sawOverflow := false
	for _, p := range pkts {
		if p.Type == PktOverflow {
			sawOverflow = true
		}
		if sawOverflow && p.Type == PktBranch && p.Addr != 0x12340004 {
			t.Errorf("post-overflow branch addr = %#x", p.Addr)
		}
	}
	if !sawOverflow {
		t.Error("overflow packet not decoded")
	}
}

func TestTimestampPacket(t *testing.T) {
	e := NewEncoder(Config{})
	stream := append(e.Start(0x8000), e.Timestamp(0xDEADBEEF)...)
	pkts, errs := DecodeAll(stream)
	if errs != 0 {
		t.Fatalf("%d decode errors", errs)
	}
	last := pkts[len(pkts)-1]
	if last.Type != PktTimestamp || last.TS != 0xDEADBEEF {
		t.Errorf("timestamp decoded as %+v", last)
	}
}

func TestDecoderErrorRecovery(t *testing.T) {
	d := NewStreamDecoder()
	// 0x80 with no preceding zeros is undefined at a packet boundary.
	for _, b := range []byte{0x80, 0x55, 0x66} {
		d.FeedByte(b)
	}
	if d.Errors == 0 {
		t.Fatal("garbage accepted without error")
	}
	// An a-sync must resynchronise the decoder.
	var pkts []Packet
	for _, b := range []byte{0, 0, 0, 0, 0, 0x80} {
		if pkt, ok := d.FeedByte(b); ok {
			pkts = append(pkts, pkt)
		}
	}
	if len(pkts) != 1 || pkts[0].Type != PktASync {
		t.Fatalf("a-sync recovery failed: %+v", pkts)
	}
	// Post-recovery stream decodes cleanly.
	e := NewEncoder(Config{BranchBroadcast: true})
	e.Start(0x8000)
	before := d.Errors
	for _, b := range e.appendBranch(nil, 0x8004, false, cpu.KindDirect) {
		d.FeedByte(b)
	}
	if d.Errors != before {
		t.Errorf("clean packet after recovery raised errors (%d -> %d)", before, d.Errors)
	}
}

// Property: a full workload trace window round-trips: every taken transfer
// appears as a branch packet with the right target, in order.
func TestWorkloadTraceRoundTrip(t *testing.T) {
	for _, name := range []string{"400.perlbench", "471.omnetpp", "456.hmmer"} {
		p, _ := workload.ByName(name)
		prog, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		enc := NewEncoder(Config{BranchBroadcast: true, SyncEvery: 64})
		var stream []byte
		var want []uint32
		sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
			if ev.Taken {
				want = append(want, ev.Target)
			}
			stream = enc.EncodeInto(stream, ev)
			return 0
		})
		c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: sink})
		if _, err := c.Run(50_000); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, enc.Flush()...)

		pkts, errs := DecodeAll(stream)
		if errs != 0 {
			t.Fatalf("%s: %d decode errors", name, errs)
		}
		var got []uint32
		for _, pk := range pkts {
			if pk.Type == PktBranch {
				got = append(got, pk.Addr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d branches, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: branch %d = %#x, want %#x", name, i, got[i], want[i])
			}
		}
		// Compression must actually compress: far fewer than 5 bytes per
		// taken branch on a hot trace.
		if ratio := float64(len(stream)) / float64(len(want)); ratio > 4.0 {
			t.Errorf("%s: %.2f stream bytes per branch — compression ineffective", name, ratio)
		}
	}
}

// Property: random event sequences round-trip through encode/decode.
func TestRandomEventsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		enc := NewEncoder(Config{BranchBroadcast: true, SyncEvery: 16})
		var stream []byte
		var want []uint32
		stream = append(stream, enc.Start(0x8000)...)
		for i := 0; i < 200; i++ {
			taken := r.Intn(4) != 0
			// Any magnitude, so successive targets differ in any chunk.
			target := r.Uint32() >> uint(r.Intn(32)) &^ 3
			kind := cpu.KindDirect
			if r.Intn(10) == 0 {
				kind = cpu.KindSyscall
				target = cpu.SyscallTarget(int32(r.Intn(32)))
			}
			if taken {
				want = append(want, target)
			}
			stream = enc.EncodeInto(stream, branchEv(0x8000, target, kind, taken))
		}
		stream = append(stream, enc.Flush()...)
		pkts, errs := DecodeAll(stream)
		if errs != 0 {
			t.Fatalf("trial %d: %d decode errors", trial, errs)
		}
		var got []uint32
		for _, pk := range pkts {
			if pk.Type == PktBranch {
				got = append(got, pk.Addr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d branches, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: branch %d mismatch", trial, i)
			}
		}
	}
}

func TestPortThresholdHoldback(t *testing.T) {
	port := NewPort(PortConfig{DrainThreshold: 16})
	if rel, _ := port.PushCounted(1003*sim.Nanosecond, 10); rel.Bytes != 0 {
		t.Fatalf("released %d bytes below threshold", rel.Bytes)
	}
	if n := port.QueueStats().Len; n != 10 {
		t.Errorf("occupancy = %d, want 10", n)
	}
	// Crossing the threshold releases all 20 bytes, 4 per 8 ns beat from
	// the first fabric edge at or after the push: five beats, 2008–2040 ns.
	rel, _ := port.PushCounted(2003*sim.Nanosecond, 10)
	want := Release{Start: 2008 * sim.Nanosecond, Bytes: 20, Group: 4, Step: 8 * sim.Nanosecond}
	if rel != want {
		t.Fatalf("release %+v, want %+v", rel, want)
	}
	if n := port.QueueStats().Len; n != 0 {
		t.Errorf("occupancy after release = %d", n)
	}
	// The next release waits for the port: it starts after the fifth beat,
	// at 2048 ns, not on the edge after its own push.
	rel, _ = port.PushCounted(2010*sim.Nanosecond, 16)
	if rel.Start != 2048*sim.Nanosecond || rel.Bytes != 16 {
		t.Errorf("second release %+v, want 16 bytes from 2048 ns", rel)
	}
}

func TestPortFlush(t *testing.T) {
	port := NewPort(PortConfig{DrainThreshold: 1000})
	port.PushCounted(0, 3)
	rel := port.FlushCounted(sim.Microsecond)
	want := Release{Start: sim.Microsecond, Bytes: 3, Group: 4, Step: 8 * sim.Nanosecond}
	if rel != want {
		t.Fatalf("flush released %+v, want %+v", rel, want)
	}
	if rel := port.FlushCounted(2 * sim.Microsecond); rel.Bytes != 0 {
		t.Errorf("second flush released %d bytes", rel.Bytes)
	}
}

func TestPortBackpressure(t *testing.T) {
	// A flood of bytes at one instant stalls the producer once the
	// departure schedule runs more than 512 bytes (128 beats of 8 ns)
	// ahead of it: each push below releases one beat, so push i schedules
	// the port to i beats.
	port := NewPort(PortConfig{DrainThreshold: 4})
	for i := 1; i <= 256; i++ {
		_, stall := port.PushCounted(0, 4)
		var want sim.Time
		if i > 128 {
			want = sim.Time(i-128) * 8 * sim.Nanosecond
		}
		if stall != want {
			t.Fatalf("push %d stalled %v, want %v", i, stall, want)
		}
	}
}

func TestOverheadSinkNegligibleOnRealWorkload(t *testing.T) {
	p, _ := workload.ByName("458.sjeng")
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := cpu.New(prog, cpu.Config{Mode: cpu.ModeBaseline})
	base.Run(400_000)

	sink := NewOverheadSink()
	traced := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: sink})
	traced.Run(400_000)

	overhead := float64(traced.Cycles()-base.Cycles()) / float64(base.Cycles())
	if overhead < 0 {
		t.Fatalf("negative overhead %.5f", overhead)
	}
	if overhead > 0.005 {
		t.Errorf("RTAD overhead %.4f%% not negligible (paper: 0.052%%)", overhead*100)
	}
}

// Property: the decoder never panics and never emits more branch packets
// than plausible on arbitrary byte soup (robustness against a corrupted or
// hostile trace stream).
func TestDecoderRobustToGarbage(t *testing.T) {
	prop := func(stream []byte) bool {
		d := NewStreamDecoder()
		pkts := 0
		for _, b := range stream {
			if _, ok := d.FeedByte(b); ok {
				pkts++
			}
		}
		return pkts <= len(stream)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving overflow markers anywhere in a valid stream never
// produces decode errors for the packets after the next full-address
// branch (the compression reset contract).
func TestOverflowAnywhereRecovers(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		enc := NewEncoder(Config{BranchBroadcast: true})
		var stream []byte
		stream = append(stream, enc.Start(0x8000)...)
		for i := 0; i < 100; i++ {
			if r.Intn(10) == 0 {
				stream = append(stream, enc.Overflow()...)
			}
			tgt := 0x8000 + uint32(r.Intn(1<<16))&^3
			stream = enc.EncodeInto(stream, branchEv(0x8000, tgt, cpu.KindDirect, true))
		}
		if _, errs := DecodeAll(stream); errs != 0 {
			t.Fatalf("trial %d: %d errors with interleaved overflows", trial, errs)
		}
	}
}

func TestPortMaxOccupancyTracksHoldback(t *testing.T) {
	port := NewPort(PortConfig{DrainThreshold: 100})
	port.PushCounted(0, 60)
	if qs := port.QueueStats(); qs.MaxDepth != 60 {
		t.Errorf("MaxDepth = %d, want 60", qs.MaxDepth)
	}
	port.PushCounted(0, 60) // crosses threshold, releases
	qs := port.QueueStats()
	if qs.Len != 0 {
		t.Error("release did not empty the hold-back buffer")
	}
	if qs.MaxDepth != 120 {
		t.Errorf("MaxDepth = %d, want 120", qs.MaxDepth)
	}
}
