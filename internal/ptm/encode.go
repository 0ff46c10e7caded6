package ptm

import "rtad/internal/cpu"

// Config parameterises the trace unit.
type Config struct {
	// BranchBroadcast forces a full branch-address packet for every taken
	// transfer (the CoreSight option RTAD relies on so that IGM sees all
	// branch targets). When false, only indirect transfers and exceptions
	// emit addresses and direct branches compress into atoms.
	BranchBroadcast bool
	// SyncEvery inserts an a-sync + i-sync pair after this many branch
	// packets, bounding how much stream a cold decoder must skip. 0 uses
	// the default.
	SyncEvery int
}

// DefaultSyncEvery matches typical CoreSight periodic-sync configuration
// (the driver programs a fairly tight sync period so a decoder joining the
// stream mid-run recovers quickly).
const DefaultSyncEvery = 256

// Encoder is the packetisation stage of the PTM: it turns retired-branch
// events into the byte stream described in this package's doc comment. It
// is a pure codec — FIFO capacity and drain timing live in Port so the same
// compression logic serves both the overhead study (Fig 6) and the latency
// pipeline (Figs 7–8).
type Encoder struct {
	cfg Config

	started    bool
	lastChunks [numChunks]uint32
	havePrev   bool
	atomBuf    []bool
	sinceSync  int
	syncs      int64

	// markBuf collects a PacketMark per completed packet while marking is
	// set (only during EncodeMarked/FlushMarked; the slice is held by value
	// so mark collection never forces a caller slice header to escape).
	markBuf []PacketMark
	marking bool
}

// PacketMark records one completed packet in the encoded byte stream: the
// offset just past its last byte (the byte whose arrival completes the
// packet at any conforming decoder) and, for branch-address packets, the
// address a decoder reconstructs. The fused trace-delivery fast path uses
// marks to skip re-decoding the stream the encoder just produced: packet
// boundaries plus the staged path's timing algebra determine exactly when
// each packet becomes visible to the IGM.
type PacketMark struct {
	// End is the offset just past the packet's last byte, within the slice
	// returned by the marked encode call.
	End int
	// Branch reports a branch-address packet — the only packet type the
	// IGM acts on; every other mark only advances the decode-packet count.
	Branch bool
	// Addr is the reconstructed branch target for Branch marks: the event
	// target with bit 0 dropped, exactly as the on-wire addr>>1 encoding
	// round-trips it.
	Addr uint32
}

// mark records one completed packet when mark collection is enabled.
func (e *Encoder) mark(end int, branch bool, addr uint32) {
	if e.marking {
		e.markBuf = append(e.markBuf, PacketMark{End: end, Branch: branch, Addr: addr})
	}
}

// Syncs reports how many a-sync/i-sync pairs the encoder has emitted
// (stream starts plus periodic synchronisation).
func (e *Encoder) Syncs() int64 { return e.syncs }

// NewEncoder returns an encoder with cfg applied.
func NewEncoder(cfg Config) *Encoder {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	return &Encoder{cfg: cfg, atomBuf: make([]bool, 0, maxAtomsPerByte)}
}

// appendASync emits the alignment-synchronisation sequence.
func appendASync(dst []byte) []byte {
	for i := 0; i < asyncZeroCount; i++ {
		dst = append(dst, hdrAsyncZero)
	}
	return append(dst, hdrAsyncTerm)
}

// appendISync emits an instruction-synchronisation packet for addr.
func appendISync(dst []byte, addr uint32, info byte) []byte {
	dst = append(dst, hdrISync)
	dst = append(dst, byte(addr), byte(addr>>8), byte(addr>>16), byte(addr>>24))
	return append(dst, info)
}

// flushAtoms drains the pending atom buffer into dst, preserving program
// order ahead of any subsequent address packet. Each emitted atom byte is
// one complete packet at the decoder.
func (e *Encoder) flushAtoms(dst []byte) []byte {
	for len(e.atomBuf) > 0 {
		n := len(e.atomBuf)
		if n > maxAtomsPerByte {
			n = maxAtomsPerByte
		}
		b := byte(atomMarker) | byte(n-1)<<2
		for i := 0; i < n; i++ {
			if e.atomBuf[i] {
				b |= 1 << (4 + i)
			}
		}
		dst = append(dst, b)
		e.mark(len(dst), false, 0)
		e.atomBuf = e.atomBuf[:copy(e.atomBuf, e.atomBuf[n:])]
	}
	return dst
}

// appendBranch emits a prefix-compressed branch-address packet.
func (e *Encoder) appendBranch(dst []byte, addr uint32, exc bool, kind cpu.Kind) []byte {
	chunks := addrToChunks(addr)
	// How many low chunks must be sent so the receiver reconstructs addr?
	need := 1
	if e.havePrev {
		for i := numChunks - 1; i >= 1; i-- {
			if chunks[i] != e.lastChunks[i] {
				need = i + 1
				break
			}
		}
	} else {
		need = numChunks
	}
	for i := 0; i < need; i++ {
		var b byte
		if i == 0 {
			b = branchMarkerBit | byte(chunks[0])<<2
			if exc {
				b |= branchExcBit
			}
		} else {
			b = byte(chunks[i])
		}
		if i < need-1 {
			b |= continuationBit
		}
		dst = append(dst, b)
	}
	if exc {
		dst = append(dst, excByteBase|byte(kind)&0x0f)
	}
	e.lastChunks = chunks
	e.havePrev = true
	e.mark(len(dst), true, addr&^1)
	return dst
}

// Start emits the stream prologue (a-sync + i-sync at addr), as the trace
// unit does when tracing is enabled by the driver.
func (e *Encoder) Start(addr uint32) []byte { return e.StartInto(nil, addr) }

// StartInto appends the stream prologue to dst and returns the extended
// slice, the allocation-free form of Start.
func (e *Encoder) StartInto(dst []byte, addr uint32) []byte {
	e.started = true
	e.havePrev = false
	e.sinceSync = 0
	e.syncs++
	dst = appendASync(dst)
	e.mark(len(dst), false, 0)
	dst = appendISync(dst, addr, 0)
	e.mark(len(dst), false, 0)
	return dst
}

// Overflow emits the marker the PTM inserts after its internal FIFO dropped
// trace data; address compression state resets because the receiver lost
// context.
func (e *Encoder) Overflow() []byte {
	e.havePrev = false
	e.atomBuf = e.atomBuf[:0]
	return []byte{hdrOverflow}
}

// Timestamp emits a timestamp packet with the low 32 bits of cycles.
func (e *Encoder) Timestamp(cycles uint32) []byte {
	dst := e.flushAtoms(nil)
	return append(dst, hdrTimestamp, byte(cycles), byte(cycles>>8), byte(cycles>>16), byte(cycles>>24))
}

// EncodeInto packetises one retired-branch event into dst (appending) and
// returns the extended slice. This is the hot-path form: a caller that
// recycles dst (`buf = enc.EncodeInto(buf[:0], ev)`) encodes every event
// with zero allocations in steady state.
func (e *Encoder) EncodeInto(dst []byte, ev cpu.BranchEvent) []byte {
	if !e.started {
		// Lazily start the stream at the first event's source address.
		dst = e.StartInto(dst, ev.PC)
		return e.EncodeInto(dst, ev)
	}

	emitAddr := ev.Taken && (e.cfg.BranchBroadcast || ev.Kind.IsIndirectKind())
	switch {
	case emitAddr:
		dst = e.flushAtoms(dst)
		exc := ev.Kind == cpu.KindSyscall
		dst = e.appendBranch(dst, ev.Target, exc, ev.Kind)
		e.sinceSync++
		if e.sinceSync >= e.cfg.SyncEvery {
			e.sinceSync = 0
			e.syncs++
			dst = appendASync(dst)
			e.mark(len(dst), false, 0)
			dst = appendISync(dst, ev.Target, 0)
			e.mark(len(dst), false, 0)
			e.havePrev = false
		}
	default:
		// Atom: taken (direct, non-broadcast) or not-taken waypoint.
		e.atomBuf = append(e.atomBuf, ev.Taken)
		if len(e.atomBuf) >= maxAtomsPerByte {
			dst = e.flushAtoms(dst)
		}
	}
	return dst
}

// Flush drains any buffered atoms (used at end of trace windows).
func (e *Encoder) Flush() []byte { return e.flushAtoms(nil) }

// FlushInto is the allocation-free form of Flush: buffered atoms append to
// dst and the extended slice is returned.
func (e *Encoder) FlushInto(dst []byte) []byte { return e.flushAtoms(dst) }

// EncodeMarked is EncodeInto with packet-boundary reporting: every packet
// completed by this event appends a PacketMark to marks (offsets are into
// the returned byte slice). A caller recycling both slices encodes with
// zero steady-state allocations. The byte stream is byte-identical to
// EncodeInto's — marks are bookkeeping, not wire data.
func (e *Encoder) EncodeMarked(dst []byte, marks []PacketMark, ev cpu.BranchEvent) ([]byte, []PacketMark) {
	e.markBuf, e.marking = marks, true
	dst = e.EncodeInto(dst, ev)
	marks, e.markBuf, e.marking = e.markBuf, nil, false
	return dst, marks
}

// FlushMarked is FlushInto with packet-boundary reporting (see EncodeMarked).
func (e *Encoder) FlushMarked(dst []byte, marks []PacketMark) ([]byte, []PacketMark) {
	e.markBuf, e.marking = marks, true
	dst = e.flushAtoms(dst)
	marks, e.markBuf, e.marking = e.markBuf, nil, false
	return dst, marks
}
