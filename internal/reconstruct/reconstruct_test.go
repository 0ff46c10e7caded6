package reconstruct

import (
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/isa"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

// collectTrace runs a workload with the PTM in the given mode, returning the
// ground-truth events and the raw trace bytes.
func collectTrace(t *testing.T, bench string, broadcast bool, instr int64) (*isa.Program, []cpu.BranchEvent, []byte) {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: broadcast})
	var truth []cpu.BranchEvent
	var stream []byte
	sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		truth = append(truth, ev)
		stream = enc.EncodeInto(stream, ev)
		return 0
	})
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: sink})
	if _, err := c.Run(instr); err != nil {
		t.Fatal(err)
	}
	stream = append(stream, enc.Flush()...)
	return prog, truth, stream
}

func TestReconstructionMatchesGroundTruth(t *testing.T) {
	for _, bench := range []string{"458.sjeng", "456.hmmer", "471.omnetpp"} {
		prog, truth, stream := collectTrace(t, bench, false, 60_000)
		got, stats, err := DecodeTrace(prog, stream)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if len(got) != len(truth) {
			t.Fatalf("%s: recovered %d transfers, ground truth %d", bench, len(got), len(truth))
		}
		for i := range truth {
			want := Branch{PC: truth[i].PC, Target: truth[i].Target, Kind: truth[i].Kind, Taken: truth[i].Taken}
			// Not-taken events carry the fallthrough as target in both.
			if got[i] != want {
				t.Fatalf("%s: transfer %d = %+v, want %+v", bench, i, got[i], want)
			}
		}
		if stats.Atoms == 0 || stats.Addresses == 0 {
			t.Errorf("%s: stats %+v implausible", bench, stats)
		}
	}
}

func TestCompressionAdvantage(t *testing.T) {
	// The point of atom mode: fewer trace bytes per branch than
	// branch-broadcast for the same information (given the program image).
	// The gain depends on the indirect-branch fraction — indirect targets
	// still need full address packets — so the loop-heavy hmmer (few
	// indirects) compresses much harder than the dispatch-heavy sjeng.
	for _, tc := range []struct {
		bench  string
		factor float64 // minimum broadcast/atom ratio
	}{
		{"456.hmmer", 2.5},
		{"458.sjeng", 1.4},
	} {
		_, truth, broadcast := collectTrace(t, tc.bench, true, 60_000)
		_, _, atoms := collectTrace(t, tc.bench, false, 60_000)
		ratio := float64(len(broadcast)) / float64(len(atoms))
		if ratio < tc.factor {
			t.Errorf("%s: atom-mode compression %.2fx below expected %.1fx (%d -> %d bytes, %d events)",
				tc.bench, ratio, tc.factor, len(broadcast), len(atoms), len(truth))
		}
	}
}

func TestMidStreamJoinWaitsForISync(t *testing.T) {
	prog, _, stream := collectTrace(t, "401.bzip2", false, 40_000)
	// Chop the stream start: the decoder must not emit garbage, and must
	// recover at the next periodic sync.
	cut := len(stream) / 3
	pkts, _ := ptm.DecodeAll(stream) // full decode for reference only
	_ = pkts
	r := New(prog)
	dec := ptm.NewStreamDecoder()
	var recovered []Branch
	sawSync := false
	for _, b := range stream[cut:] {
		pkt, ok := dec.FeedByte(b)
		if !ok {
			continue
		}
		if pkt.Type == ptm.PktISync {
			sawSync = true
		}
		bs, err := r.Feed(pkt)
		if err != nil {
			t.Fatalf("after join: %v", err)
		}
		if !sawSync && len(bs) > 0 {
			t.Fatal("emitted transfers before any i-sync")
		}
		recovered = append(recovered, bs...)
	}
	if !sawSync {
		t.Skip("no periodic sync in the tail; enlarge the run")
	}
	if len(recovered) == 0 {
		t.Fatal("no transfers recovered after resync")
	}
	if r.Stats().LostRegion == 0 {
		t.Error("pre-sync packets not accounted as lost")
	}
	// Recovered stream must be self-consistent: every recovered target of
	// a taken direct transfer lies inside the program or kernel space.
	for _, b := range recovered {
		if b.Kind == cpu.KindSyscall {
			continue
		}
		if b.Taken && !prog.Contains(b.Target) {
			t.Fatalf("recovered target %#x outside program", b.Target)
		}
	}
}

func TestOverflowDesynchronises(t *testing.T) {
	prog, _, _ := collectTrace(t, "403.gcc", false, 10_000)
	r := New(prog)
	// Sync in, then overflow: the decoder must stop walking.
	if _, err := r.Feed(ptm.Packet{Type: ptm.PktISync, Addr: prog.Base}); err != nil {
		t.Fatal(err)
	}
	if !r.Synced() {
		t.Fatal("not synced after i-sync")
	}
	if _, err := r.Feed(ptm.Packet{Type: ptm.PktOverflow}); err != nil {
		t.Fatal(err)
	}
	if r.Synced() {
		t.Fatal("still synced after overflow")
	}
	bs, err := r.Feed(ptm.Packet{Type: ptm.PktAtoms, Atoms: []bool{true}})
	if err != nil || len(bs) != 0 {
		t.Fatalf("desynced decoder emitted transfers: %v %v", bs, err)
	}
	if r.Stats().LostRegion == 0 {
		t.Error("lost packets not counted")
	}
}

func TestWalkDetectsInconsistentTrace(t *testing.T) {
	// A trace whose address packet contradicts the code (a syscall whose
	// kernel target does not match the SVC number) must be rejected, not
	// silently accepted — this is the defence against trace spoofing.
	src := `
		svc #3
		halt
	`
	prog, err := isa.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	r := New(prog)
	if _, err := r.Feed(ptm.Packet{Type: ptm.PktISync, Addr: 0x8000}); err != nil {
		t.Fatal(err)
	}
	_, err = r.Feed(ptm.Packet{
		Type: ptm.PktBranch, Addr: cpu.SyscallTarget(9), Exc: true, Kind: cpu.KindSyscall,
	})
	if err == nil {
		t.Fatal("inconsistent syscall target accepted")
	}
}
