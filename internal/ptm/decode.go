package ptm

import "rtad/internal/cpu"

// StreamDecoder is the reference decoder for the PTM packet protocol. Its
// one state machine is a per-byte step with two entry points: FeedByte
// returns every packet as it completes, one byte at a time — the
// granularity of the hardware trace-analyzer units in IGM, which wrap it
// with cycle timing — and NextBranch scans a slice up to the next branch
// packet and returns only its target and kind, for the trace-replay front.
// A decoder may be fed through both, in any mix.
type StreamDecoder struct {
	state dstate
	zeros int    // 0x00 bytes seen at a packet boundary
	nbuf  int    // payload bytes of the i-sync or timestamp packet so far
	word  uint32 // i-sync address or timestamp, assembled low byte first

	// A branch target is built in addr as its chunks arrive, shift being
	// the address bit the next chunk lands at. When the packet completes,
	// the bits above the received chunks come from the previous target,
	// prev (prefix compression), and the result becomes prev.
	exc      bool // the branch packet ends with an exception byte
	shift    uint
	addr     uint32
	prev     uint32
	havePrev bool

	// atomScratch backs the Atoms slice of packets returned by FeedByte,
	// so atom decoding allocates nothing.
	atomScratch [maxAtomsPerByte]bool

	// Errors counts protocol violations (unexpected bytes). The decoder
	// resynchronises at the next a-sync rather than failing hard, like
	// the hardware.
	Errors int
	// Bytes counts every byte fed.
	Bytes int64
}

type dstate uint8

const (
	stIdle dstate = iota
	stISync
	stTimestamp
	stBranch
	stBranchExc
	stSkipToSync // error recovery: hunt for a-sync
)

// pktNone is step's report that the byte completed no packet.
const pktNone PacketType = 0xff

// NewStreamDecoder returns a decoder at stream start.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// FeedByte consumes one byte and returns the completed packet, if any; at
// most one packet completes per byte.
//
// Zero-allocation contract: a PktAtoms packet's Atoms slice is a window
// into the decoder's own scratch buffer and is only valid until the next
// FeedByte call. Consume (or copy) it before feeding the next byte.
func (d *StreamDecoder) FeedByte(b byte) (Packet, bool) {
	d.Bytes++
	switch t := d.step(b); t {
	case pktNone:
		return Packet{}, false
	case PktBranch:
		return Packet{Type: PktBranch, Addr: d.prev, Kind: d.branchKind(b), Exc: d.exc}, true
	case PktISync:
		return Packet{Type: PktISync, Addr: d.word, Info: b}, true
	case PktTimestamp:
		return Packet{Type: PktTimestamp, TS: d.word}, true
	case PktAtoms:
		n := int(b>>2)&0x03 + 1
		for i := range n {
			d.atomScratch[i] = b&(1<<(4+i)) != 0
		}
		return Packet{Type: PktAtoms, Atoms: d.atomScratch[:n]}, true
	default:
		return Packet{Type: t}, true
	}
}

// NextBranch consumes data up to and including the last byte of the next
// branch packet and returns how many bytes it consumed, the packet's
// target and kind, and ok. With no branch packet in data it consumes all of
// it and returns ok false. Every other packet is decoded and dropped, and a
// packet cut by the end of data carries over to the next call, so scanning
// a stream in any pieces yields the branch packets FeedByte would.
func (d *StreamDecoder) NextBranch(data []byte) (n int, addr uint32, kind cpu.Kind, ok bool) {
	for i, b := range data {
		if d.step(b) == PktBranch {
			d.Bytes += int64(i + 1)
			return i + 1, d.prev, d.branchKind(b), true
		}
	}
	d.Bytes += int64(len(data))
	return len(data), 0, 0, false
}

// branchKind is the kind of the branch packet that byte last just completed:
// the exception byte's, or KindDirect for a packet without one.
func (d *StreamDecoder) branchKind(last byte) cpu.Kind {
	if d.exc {
		return cpu.Kind(last & 0x0f)
	}
	return cpu.KindDirect
}

// step consumes one byte and returns the type of the packet it completes,
// or pktNone. The payload stays in the decoder (a branch target in prev,
// an i-sync address or a timestamp in word) or is the byte itself (atoms,
// the i-sync info byte, the exception byte's kind). Its callers count the
// byte in Bytes.
func (d *StreamDecoder) step(b byte) PacketType {
	// A-sync detection runs in every state: five zeros then 0x80 realigns
	// the decoder unconditionally (that is its purpose). Zeros accumulate
	// only at a packet boundary or while hunting for a sync; inside a
	// packet a zero byte is payload.
	if b == hdrAsyncZero {
		if d.state == stIdle || d.state == stSkipToSync {
			d.zeros++
			return pktNone
		}
	} else if d.zeros > 0 {
		zeros := d.zeros
		d.zeros = 0
		if b == hdrAsyncTerm && zeros >= asyncZeroCount {
			d.state, d.havePrev = stIdle, false
			return PktASync
		}
		if d.state == stIdle {
			// Zeros that did not complete an a-sync are a protocol error.
			d.Errors += zeros
		}
	}

	switch d.state {
	case stIdle: // b is a packet header
		switch {
		case b&branchMarkerBit != 0:
			d.exc = b&branchExcBit != 0
			d.addr, d.shift = uint32(b>>1)&0x3e, 6
			if b&continuationBit != 0 {
				d.state = stBranch
				return pktNone
			}
			return d.endAddress()
		case b&0x03 == atomMarker:
			return PktAtoms
		case b == hdrISync:
			d.state, d.nbuf, d.word = stISync, 0, 0
		case b == hdrTimestamp:
			d.state, d.nbuf, d.word = stTimestamp, 0, 0
		case b == hdrOverflow:
			d.havePrev = false
			return PktOverflow
		default:
			d.Errors++
			d.state = stSkipToSync
		}

	case stBranch:
		if d.shift < 32 {
			d.addr |= uint32(b&^continuationBit) << d.shift
			d.shift += 7
		} else {
			d.Errors++ // a sixth address byte
		}
		if b&continuationBit == 0 {
			return d.endAddress()
		}

	case stBranchExc:
		d.state = stIdle
		if b&0xF0 != excByteBase&0xF0 {
			d.Errors++
		}
		return d.target()

	case stISync: // four address bytes, then the info byte
		if d.nbuf == 4 {
			d.state, d.havePrev = stIdle, false
			return PktISync
		}
		d.word |= uint32(b) << (8 * d.nbuf)
		d.nbuf++

	case stTimestamp:
		d.word |= uint32(b) << (8 * d.nbuf)
		if d.nbuf++; d.nbuf == 4 {
			d.state = stIdle
			return PktTimestamp
		}
	}
	return pktNone
}

// endAddress follows a branch packet's last address byte: the packet
// completes, or its exception byte comes next.
func (d *StreamDecoder) endAddress() PacketType {
	if d.exc {
		d.state = stBranchExc
		return pktNone
	}
	d.state = stIdle
	return d.target()
}

// target completes the branch target: the received chunks, and the
// previous target's bits above them. A packet carrying all five chunks
// (shift 34) inherits nothing.
func (d *StreamDecoder) target() PacketType {
	if !d.havePrev && d.shift < 32 {
		// Compressed packet with no baseline: the stream desynchronised.
		d.Errors++
	}
	d.prev = d.addr | d.prev&^(1<<d.shift-1)
	d.havePrev = true
	return PktBranch
}

// DecodeAll is a convenience that feeds a whole buffer and collects packets,
// each with its own copy of its Atoms.
func DecodeAll(stream []byte) ([]Packet, int) {
	d := NewStreamDecoder()
	var out []Packet
	for _, b := range stream {
		if pkt, ok := d.FeedByte(b); ok {
			if pkt.Atoms != nil {
				pkt.Atoms = append([]bool(nil), pkt.Atoms...)
			}
			out = append(out, pkt)
		}
	}
	return out, d.Errors
}
