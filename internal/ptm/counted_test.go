package ptm

import (
	"math/rand"
	"testing"

	"rtad/internal/cpu"
)

// TestCountedMatchesBytes pins the counted form to the byte form. One
// encoder per form is fed the same random events; after every event and
// every flush the counted byte count must equal what EncodeInto/FlushInto
// appended, and the marks must sit exactly where a StreamDecoder fed those
// bytes completes each packet (end offset, branch flag, address). Both forms
// share the compression-length arithmetic, so each branch packet's length
// is also checked against the chunk-by-chunk definition.
func TestCountedMatchesBytes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"broadcast/sync-1", Config{BranchBroadcast: true, SyncEvery: 1}},
		{"broadcast/sync-16", Config{BranchBroadcast: true, SyncEvery: 16}},
		{"broadcast/sync-default", Config{BranchBroadcast: true}},
		{"indirect-only/sync-1", Config{SyncEvery: 1}},
		{"indirect-only/sync-16", Config{SyncEvery: 16}},
		{"indirect-only/sync-default", Config{}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ci) + 1))
			byteEnc, countEnc := NewEncoder(tc.cfg), NewEncoder(tc.cfg)
			dec := NewStreamDecoder()
			var (
				buf   []byte
				marks []PacketMark
				off   int64 // bytes fed to dec
				// Decoder-side view of the stream, for the coverage checks.
				lastEnd    int64  // end of the previous packet
				lastAtoms  int    // atom count of the previous packet, 0 if not atoms
				haveBase   bool   // a branch packet since the last sync
				base       uint32 // the last branch address
				lens       [maxBranchBytes + 1]int
				atomRuns   [maxAtomsPerByte + 1]int
				excPackets int
			)
			check := func(step int, got []PacketMark, n int) {
				t.Helper()
				if n != len(buf) {
					t.Fatalf("step %d: counted %d bytes, byte form wrote %d", step, n, len(buf))
				}
				k := 0
				for _, b := range buf {
					off++
					pkt, ok := dec.FeedByte(b)
					if !ok {
						continue
					}
					want := PacketMark{End: off, Branch: pkt.Type == PktBranch}
					if want.Branch {
						want.Addr = pkt.Addr
						addrBytes := int(off - lastEnd)
						if pkt.Exc {
							addrBytes--
							excPackets++
						}
						if haveBase {
							if want := chunksNeeded(base, pkt.Addr); addrBytes != want {
								t.Fatalf("step %d: %#x after %#x took %d address bytes, want %d", step, pkt.Addr, base, addrBytes, want)
							}
							lens[addrBytes]++
						}
						base = pkt.Addr
						atomRuns[lastAtoms]++
					}
					if k >= len(got) || got[k] != want {
						t.Fatalf("step %d: packet %d: counted marks %+v, decoder completed %+v", step, k, got, want)
					}
					k++
					switch pkt.Type {
					case PktBranch:
						haveBase = true
					case PktASync, PktISync:
						haveBase = false
					}
					lastAtoms = len(pkt.Atoms)
					lastEnd = off
				}
				if k != len(got) {
					t.Fatalf("step %d: %d counted marks, decoder completed %d packets", step, len(got), k)
				}
			}

			var last uint32
			for step := 0; step < 20000; step++ {
				if step%512 == 511 {
					buf = byteEnc.FlushInto(buf[:0])
					var n int
					marks, n = countEnc.FlushCounted(marks[:0])
					check(step, marks, n)
				}
				ev := randomEvent(r, &last)
				buf = byteEnc.EncodeInto(buf[:0], ev)
				var n int
				marks, n = countEnc.EncodeCounted(marks[:0], ev)
				check(step, marks, n)
			}
			buf = byteEnc.FlushInto(buf[:0])
			marks, n := countEnc.FlushCounted(marks[:0])
			check(-1, marks, n)

			if dec.Errors != 0 {
				t.Fatalf("%d decode errors on the byte stream", dec.Errors)
			}
			if byteEnc.Syncs() != countEnc.Syncs() {
				t.Fatalf("syncs: byte form %d, counted form %d", byteEnc.Syncs(), countEnc.Syncs())
			}
			for n := 1; n <= maxBranchBytes; n++ {
				if lens[n] == 0 && tc.cfg.SyncEvery != 1 {
					t.Errorf("no %d-byte branch packet followed a non-sync branch (lengths %v)", n, lens)
				}
			}
			for n := 1; n <= maxAtomsPerByte; n++ {
				if atomRuns[n] == 0 {
					t.Errorf("no %d-atom packet just before a branch packet (runs %v)", n, atomRuns)
				}
			}
			if excPackets == 0 {
				t.Error("no syscall exception packet")
			}
		})
	}
}

// randomEvent returns a not-taken waypoint with probability 1/2 (so runs of
// 1–4 atoms precede address packets), else a taken transfer of a random
// kind. A taken target flips a random-width low mask of the previous one,
// so every compressed length occurs across the full 32-bit range.
func randomEvent(r *rand.Rand, last *uint32) cpu.BranchEvent {
	if r.Intn(2) == 0 {
		return cpu.BranchEvent{PC: *last, Kind: cpu.KindDirect}
	}
	kind := cpu.Kind(r.Intn(int(cpu.KindSyscall) + 1))
	target := *last ^ r.Uint32()&(1<<uint(r.Intn(32)+1)-1)
	if kind == cpu.KindSyscall {
		target = cpu.SyscallTarget(int32(r.Intn(32)))
	}
	*last = target
	return cpu.BranchEvent{PC: target, Target: target, Kind: kind, Taken: true}
}

// chunksNeeded is the prefix-compression definition: a branch packet to
// addr after one to prev carries every chunk up to the highest one that
// differs.
func chunksNeeded(prev, addr uint32) int {
	pc, ac := addrToChunks(prev), addrToChunks(addr)
	for k := numChunks - 1; k >= 1; k-- {
		if pc[k] != ac[k] {
			return k + 1
		}
	}
	return 1
}
