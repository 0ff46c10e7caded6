package ptm

import (
	"math/bits"

	"rtad/internal/cpu"
)

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
//
// The encoder runs in one of two forms, chosen by which call family the
// caller uses. The byte form (StartInto/EncodeInto/FlushInto)
// appends the packet bytes. The counted form (EncodeCounted/FlushCounted)
// writes no bytes: it advances the same compression, atom and sync state
// and reports each completed packet as a PacketMark. One encoder instance
// must stay in one form.
type Encoder struct {
	cfg Config

	started   bool
	prev      uint32 // addr>>1 of the last branch packet (compression baseline)
	havePrev  bool
	atoms     uint8 // buffered atoms, oldest in bit 0 (1 = taken)
	nAtoms    uint8
	sinceSync int
	syncs     int64
	end       int64 // counted form: stream bytes so far
}

// PacketMark records one packet completed by the counted form: where it
// ends in the stream and, for branch-address packets, the address a
// decoder reconstructs. The counted trace-delivery chain needs nothing
// else: packet ends plus the port's and formatter's release schedules
// determine exactly when each packet becomes visible to the IGM, so the
// bytes are never written or re-decoded.
type PacketMark struct {
	// End is the stream offset just past the packet's last byte (the byte
	// whose arrival completes the packet at any conforming decoder),
	// counted from the encoder's first byte.
	End int64
	// Branch reports a branch-address packet — the only packet type the
	// IGM acts on; every other mark only advances the decode-packet count.
	Branch bool
	// Addr is the reconstructed branch target for Branch marks: the event
	// target with bit 0 dropped, exactly as the on-wire addr>>1 encoding
	// round-trips it.
	Addr uint32
}

// Stream lengths of the fixed-size packets, for the counted form.
const (
	asyncLen = asyncZeroCount + 1 // zeros plus terminator
	isyncLen = 6                  // header, 4 address bytes, info byte
)

// Syncs reports how many a-sync/i-sync pairs the encoder has emitted
// (stream starts plus periodic synchronisation).
func (e *Encoder) Syncs() int64 { return e.syncs }

// NewEncoder returns an encoder with cfg applied.
func NewEncoder(cfg Config) *Encoder {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	return &Encoder{cfg: cfg}
}

// The state transitions below are shared by both forms, so the byte and
// counted streams cannot disagree on a packet's size or order.

// start records a stream (re)start: the a-sync/i-sync prologue resets the
// compression baseline and the periodic-sync count.
func (e *Encoder) start() {
	e.started = true
	e.havePrev = false
	e.sinceSync = 0
	e.syncs++
}

// emitsAddr reports whether ev produces a branch-address packet; every
// other event buffers an atom (taken direct without broadcast, or not
// taken).
func (e *Encoder) emitsAddr(ev cpu.BranchEvent) bool {
	return ev.Taken && (e.cfg.BranchBroadcast || ev.Kind.IsIndirectKind())
}

// pushAtom buffers one atom and reports whether the atom byte is now full.
func (e *Encoder) pushAtom(taken bool) bool {
	if taken {
		e.atoms |= 1 << e.nAtoms
	}
	e.nAtoms++
	return e.nAtoms == maxAtomsPerByte
}

// takeAtoms returns the buffered atoms as one atom packet byte and clears
// the buffer; ok is false when no atom is buffered. Each atom byte is one
// complete packet at the decoder.
func (e *Encoder) takeAtoms() (b byte, ok bool) {
	if e.nAtoms == 0 {
		return 0, false
	}
	b = atomMarker | (e.nAtoms-1)<<2 | e.atoms<<4
	e.atoms, e.nAtoms = 0, 0
	return b, true
}

// branchLen returns how many address bytes (1–5) a branch packet to addr
// carries, and makes addr the compression baseline. The decoder inherits
// every chunk above the highest bit of addr>>1 that differs from the
// baseline, so the packet must carry the chunks up to the one holding that
// bit. With chunk widths 5, 7, 7, 7, 5, chunk k ends at bit 5+7k, which
// gives 1+(hi+1)/7 chunks for hi = bits.Len32(prev ^ addr>>1).
func (e *Encoder) branchLen(addr uint32) int {
	v := addr >> 1
	n := numChunks
	if e.havePrev {
		n = 1 + (bits.Len32(e.prev^v)+1)/7
	}
	e.prev, e.havePrev = v, true
	return n
}

// syncDue counts one branch packet toward the periodic sync and reports
// whether an a-sync/i-sync pair follows it; the pair resets the compression
// baseline.
func (e *Encoder) syncDue() bool {
	e.sinceSync++
	if e.sinceSync < e.cfg.SyncEvery {
		return false
	}
	e.sinceSync = 0
	e.syncs++
	e.havePrev = false
	return true
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

// appendAtoms drains the buffered atoms into dst, preserving program order
// ahead of any subsequent address packet.
func (e *Encoder) appendAtoms(dst []byte) []byte {
	if b, ok := e.takeAtoms(); ok {
		dst = append(dst, b)
	}
	return dst
}

// appendBranch emits a prefix-compressed branch-address packet.
func (e *Encoder) appendBranch(dst []byte, addr uint32, exc bool, kind cpu.Kind) []byte {
	n := e.branchLen(addr)
	v := addr >> 1
	b := branchMarkerBit | byte(v&0x1f)<<2 // 5-bit first chunk
	if exc {
		b |= branchExcBit
	}
	v >>= 5
	for i := 1; i < n; i++ {
		dst = append(dst, b|continuationBit)
		b = byte(v & 0x7f)
		v >>= 7
	}
	dst = append(dst, b)
	if exc {
		dst = append(dst, excByteBase|byte(kind)&0x0f)
	}
	return dst
}

// Start emits the stream prologue (a-sync + i-sync at addr), as the trace
// unit does when tracing is enabled by the driver.
func (e *Encoder) Start(addr uint32) []byte { return e.StartInto(nil, addr) }

// StartInto appends the stream prologue to dst and returns the extended
// slice, the allocation-free form of Start.
func (e *Encoder) StartInto(dst []byte, addr uint32) []byte {
	e.start()
	return appendISync(appendASync(dst), addr, 0)
}

// Overflow emits the marker the PTM inserts after its internal FIFO dropped
// trace data; address compression state resets because the receiver lost
// context.
func (e *Encoder) Overflow() []byte {
	e.havePrev = false
	e.atoms, e.nAtoms = 0, 0
	return []byte{hdrOverflow}
}

// Timestamp emits a timestamp packet with the low 32 bits of cycles.
func (e *Encoder) Timestamp(cycles uint32) []byte {
	dst := e.appendAtoms(nil)
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
	}
	if !e.emitsAddr(ev) {
		if e.pushAtom(ev.Taken) {
			dst = e.appendAtoms(dst)
		}
		return dst
	}
	dst = e.appendAtoms(dst)
	dst = e.appendBranch(dst, ev.Target, ev.Kind == cpu.KindSyscall, ev.Kind)
	if e.syncDue() {
		dst = appendISync(appendASync(dst), ev.Target, 0)
	}
	return dst
}

// Flush drains any buffered atoms (used at end of trace windows).
func (e *Encoder) Flush() []byte { return e.appendAtoms(nil) }

// FlushInto is the allocation-free form of Flush: buffered atoms append to
// dst and the extended slice is returned.
func (e *Encoder) FlushInto(dst []byte) []byte { return e.appendAtoms(dst) }

// countPacket accounts one n-byte packet in the counted stream.
func (e *Encoder) countPacket(marks []PacketMark, n int, branch bool, addr uint32) []PacketMark {
	e.end += int64(n)
	return append(marks, PacketMark{End: e.end, Branch: branch, Addr: addr})
}

// countSync accounts an a-sync/i-sync pair.
func (e *Encoder) countSync(marks []PacketMark) []PacketMark {
	return e.countPacket(e.countPacket(marks, asyncLen, false, 0), isyncLen, false, 0)
}

// countAtoms accounts the buffered atoms' packet, if any.
func (e *Encoder) countAtoms(marks []PacketMark) []PacketMark {
	if _, ok := e.takeAtoms(); ok {
		marks = e.countPacket(marks, 1, false, 0)
	}
	return marks
}

// EncodeCounted is the counted form of EncodeInto: it advances the same
// state and writes no bytes. It appends a PacketMark for every packet the
// event completes to marks and returns the extended slice with the number
// of bytes EncodeInto would have appended. A caller that recycles marks,
// or consumes it as a queue, encodes with zero steady-state allocations.
func (e *Encoder) EncodeCounted(marks []PacketMark, ev cpu.BranchEvent) ([]PacketMark, int) {
	from := e.end
	if !e.started {
		e.start()
		marks = e.countSync(marks)
	}
	if !e.emitsAddr(ev) {
		if e.pushAtom(ev.Taken) {
			marks = e.countAtoms(marks)
		}
		return marks, int(e.end - from)
	}
	marks = e.countAtoms(marks)
	n := e.branchLen(ev.Target)
	if ev.Kind == cpu.KindSyscall {
		n++ // exception byte
	}
	marks = e.countPacket(marks, n, true, ev.Target&^1)
	if e.syncDue() {
		marks = e.countSync(marks)
	}
	return marks, int(e.end - from)
}

// FlushCounted is the counted form of FlushInto: the buffered atoms'
// packet, if any, appends its mark, and the byte count is returned.
func (e *Encoder) FlushCounted(marks []PacketMark) ([]PacketMark, int) {
	from := e.end
	marks = e.countAtoms(marks)
	return marks, int(e.end - from)
}
