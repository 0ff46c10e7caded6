package ptm

import (
	"math/rand"
	"reflect"
	"testing"

	"rtad/internal/cpu"
)

// legacyDecoder is StreamDecoder as it was before its shift-and-mask
// rewrite, frozen as the reference the decoder is checked against: the
// branch target's chunks are collected in an array, the high chunks are
// inherited chunk by chunk from the previous target's array, and
// chunksToAddr joins them. Do not edit it to follow the decoder.
type legacyDecoder struct {
	state   legacyState
	zeros   int
	buf     [8]byte
	nbuf    int
	exc     bool
	chunks  [numChunks]uint32
	nchunks int

	prev     [numChunks]uint32
	havePrev bool

	atomScratch [maxAtomsPerByte]bool

	Errors int
	Bytes  int64
}

type legacyState uint8

const (
	legacyIdle legacyState = iota
	legacyISync
	legacyTimestamp
	legacyBranch
	legacyBranchExc
	legacySkipToSync
)

func (d *legacyDecoder) FeedByte(b byte) (Packet, bool) {
	d.Bytes++
	if b == hdrAsyncZero {
		d.zeros++
		if d.state == legacyIdle && d.zeros <= asyncZeroCount {
			return Packet{}, false
		}
		if d.state == legacySkipToSync || d.zeros >= asyncZeroCount {
			return Packet{}, false
		}
	}
	if b == hdrAsyncTerm && d.zeros >= asyncZeroCount {
		d.zeros = 0
		d.reset()
		return Packet{Type: PktASync}, true
	}
	zeros := d.zeros
	d.zeros = 0

	switch d.state {
	case legacySkipToSync:
		return Packet{}, false

	case legacyIdle:
		return d.headerByte(b, zeros)

	case legacyISync:
		d.buf[d.nbuf] = b
		d.nbuf++
		if d.nbuf < 5 {
			return Packet{}, false
		}
		addr := uint32(d.buf[0]) | uint32(d.buf[1])<<8 | uint32(d.buf[2])<<16 | uint32(d.buf[3])<<24
		info := d.buf[4]
		d.state = legacyIdle
		d.havePrev = false
		return Packet{Type: PktISync, Addr: addr, Info: info}, true

	case legacyTimestamp:
		d.buf[d.nbuf] = b
		d.nbuf++
		if d.nbuf < 4 {
			return Packet{}, false
		}
		ts := uint32(d.buf[0]) | uint32(d.buf[1])<<8 | uint32(d.buf[2])<<16 | uint32(d.buf[3])<<24
		d.state = legacyIdle
		return Packet{Type: PktTimestamp, TS: ts}, true

	case legacyBranch:
		if d.nchunks < numChunks {
			d.chunks[d.nchunks] = uint32(b) & 0x7f
			d.nchunks++
		} else {
			d.Errors++
		}
		if b&continuationBit != 0 {
			return Packet{}, false
		}
		return d.finishBranch()

	case legacyBranchExc:
		d.state = legacyIdle
		if b&0xF0 != excByteBase&0xF0 {
			d.Errors++
		}
		kind := cpu.Kind(b & 0x0f)
		pkt := d.assembleBranch()
		pkt.Exc = true
		pkt.Kind = kind
		return pkt, true
	}
	return Packet{}, false
}

func (d *legacyDecoder) headerByte(b byte, zeros int) (Packet, bool) {
	if zeros > 0 && b != hdrAsyncZero {
		d.Errors += zeros
	}
	switch {
	case b == hdrAsyncZero:
		return Packet{}, false
	case b == hdrISync:
		d.state, d.nbuf = legacyISync, 0
		return Packet{}, false
	case b == hdrTimestamp:
		d.state, d.nbuf = legacyTimestamp, 0
		return Packet{}, false
	case b == hdrOverflow:
		d.havePrev = false
		return Packet{Type: PktOverflow}, true
	case b&branchMarkerBit != 0:
		d.exc = b&branchExcBit != 0
		d.chunks = [numChunks]uint32{uint32(b>>2) & 0x1f}
		d.nchunks = 1
		if b&continuationBit != 0 {
			d.state = legacyBranch
			return Packet{}, false
		}
		return d.finishBranch()
	case b&0x03 == atomMarker:
		n := int(b>>2)&0x03 + 1
		for i := 0; i < n; i++ {
			d.atomScratch[i] = b&(1<<(4+i)) != 0
		}
		return Packet{Type: PktAtoms, Atoms: d.atomScratch[:n]}, true
	default:
		d.Errors++
		d.state = legacySkipToSync
		return Packet{}, false
	}
}

func (d *legacyDecoder) finishBranch() (Packet, bool) {
	if d.exc {
		d.state = legacyBranchExc
		return Packet{}, false
	}
	d.state = legacyIdle
	return d.assembleBranch(), true
}

func (d *legacyDecoder) assembleBranch() Packet {
	if !d.havePrev && d.nchunks < numChunks {
		d.Errors++
	}
	ch := d.prev
	for i := 0; i < d.nchunks; i++ {
		ch[i] = d.chunks[i]
	}
	d.prev = ch
	d.havePrev = true
	return Packet{Type: PktBranch, Addr: chunksToAddr(ch), Kind: cpu.KindDirect}
}

func (d *legacyDecoder) reset() {
	d.state = legacyIdle
	d.nbuf = 0
	d.nchunks = 0
	d.havePrev = false
}

// decodedBranch is a branch packet as the replay front sees it: its target,
// its kind and the stream offset just past its last byte.
type decodedBranch struct {
	end  int64
	addr uint32
	kind cpu.Kind
}

// checkDecoder pins StreamDecoder to legacyDecoder on stream. Fed byte by
// byte, the two must return the same (Packet, ok), atoms included, and agree
// on Errors and Bytes after every byte. Then NextBranch scans the stream in
// pieces of cuts[0], cuts[1], … bytes (0 is an empty piece) and then the
// rest, and must yield the reference's branch packets in order.
func checkDecoder(t *testing.T, stream, cuts []byte) {
	ref, dec := &legacyDecoder{}, NewStreamDecoder()
	var want []decodedBranch
	for i, b := range stream {
		wp, wok := ref.FeedByte(b)
		gp, gok := dec.FeedByte(b)
		if wok != gok || !reflect.DeepEqual(gp, wp) || dec.Errors != ref.Errors || dec.Bytes != ref.Bytes {
			t.Fatalf("byte %d (%#02x): FeedByte gave %+v, %v with %d errors after %d bytes; reference %+v, %v with %d errors after %d bytes",
				i, b, gp, gok, dec.Errors, dec.Bytes, wp, wok, ref.Errors, ref.Bytes)
		}
		if wok && wp.Type == PktBranch {
			want = append(want, decodedBranch{int64(i + 1), wp.Addr, wp.Kind})
		}
	}

	scan := NewStreamDecoder()
	var got []decodedBranch
	var off int64
	next := func(piece []byte) {
		for {
			n, addr, kind, ok := scan.NextBranch(piece)
			off += int64(n)
			piece = piece[n:]
			if !ok {
				if len(piece) != 0 {
					t.Fatalf("NextBranch returned without a branch packet and left %d bytes", len(piece))
				}
				return
			}
			got = append(got, decodedBranch{off, addr, kind})
		}
	}
	rest := stream
	for _, c := range cuts {
		n := min(int(c), len(rest))
		next(rest[:n])
		rest = rest[n:]
	}
	next(rest)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("branch packet %d: NextBranch %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("NextBranch found %d branch packets, the reference %d", len(got), len(want))
	}
	if scan.Errors != ref.Errors || scan.Bytes != ref.Bytes || off != int64(len(stream)) {
		t.Fatalf("NextBranch scan: %d errors, Bytes %d, %d bytes consumed; reference %d errors over %d bytes",
			scan.Errors, scan.Bytes, off, ref.Errors, len(stream))
	}
}

// decoderCase is one stream of the decoder checks, with the piece lengths
// checkDecoder scans it in.
type decoderCase struct {
	name   string
	stream []byte
	cuts   []byte
}

// decoderCases are the table of TestStreamDecoderMatchesReference and the
// seeds of FuzzStreamDecoder.
func decoderCases() []decoderCase {
	async := []byte{0, 0, 0, 0, 0, 0x80}
	isync := appendISync(nil, 0x8000, 0x5a)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	taken := func(target uint32) cpu.BranchEvent {
		return cpu.BranchEvent{PC: 0x8000, Target: target, Kind: cpu.KindDirect, Taken: true}
	}

	// Every packet family from the encoder: atoms and indirect address
	// packets (non-broadcast), every compressed length (broadcast),
	// syscall exception packets, periodic syncs, timestamps and overflows.
	r := rand.New(rand.NewSource(1))
	var families []byte
	var last uint32
	for _, cfg := range []Config{{SyncEvery: 16}, {BranchBroadcast: true, SyncEvery: 16}} {
		e := NewEncoder(cfg)
		families = e.StartInto(families, 0x8000)
		for i := range 600 {
			families = e.EncodeInto(families, randomEvent(r, &last))
			switch i % 100 {
			case 30:
				families = append(families, e.Timestamp(r.Uint32())...)
			case 70:
				families = append(families, e.Overflow()...)
			}
		}
		families = e.FlushInto(families)
	}

	// Branch packets of 1–5 address bytes, the top address bit included:
	// each step flips one bit of a different chunk.
	e := NewEncoder(Config{BranchBroadcast: true})
	lengths := e.Start(0x8000)
	target := uint32(0x12345678)
	for range 3 {
		for _, bit := range []uint{2, 8, 15, 22, 29, 31} {
			target ^= 1 << bit
			lengths = e.EncodeInto(lengths, taken(target))
		}
	}

	garbage := make([]byte, 4096)
	r.Read(garbage)
	var syncedGarbage []byte
	for i := 0; i < len(garbage); i += 97 {
		syncedGarbage = cat(syncedGarbage, garbage[i:min(i+97, len(garbage))], async)
	}
	flipped := append([]byte(nil), families...)
	for range 100 {
		flipped[r.Intn(len(flipped))] ^= 1 << r.Intn(8)
	}

	full := []byte{0xfd, 0xff, 0xff, 0xff, 0x7f} // all five chunks, every bit set
	return []decoderCase{
		{"packet-families", families, []byte{1, 2, 3, 5, 0, 8, 13, 21, 34}},
		{"address-bytes-1-to-5", lengths, []byte{1, 1, 1, 2, 3, 4}},
		{"exception-nibbles", cat(async, isync,
			[]byte{0x83, 0x80, 0x80, 0x80, 0x05, 0xe5}, // full target, good nibble
			[]byte{0x0f, 0x35},                         // bad nibble
			[]byte{0x07, 0x00},                         // zero as the exception byte
			[]byte{0x07, 0x80},                         // a-sync terminator as the exception byte
			[]byte{0x8b, 0x01, 0xef},                   // two address bytes, kind 15
			[]byte{0x07, 0xf2}), []byte{7, 3, 0, 2}},
		{"six-plus-address-bytes", cat(async, isync,
			[]byte{0x81, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // eight address bytes
			[]byte{0x05},
			[]byte{0x83, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0xe5}, // seven, then an exception byte
			full, []byte{0x09}), []byte{9, 4}},
		{"overflow-and-timestamp", cat(async, isync, full,
			[]byte{hdrOverflow, 0x05},                      // compressed branch after an overflow
			[]byte{hdrTimestamp, 0x01, 0x02, 0x03, 0x04},   // timestamp
			[]byte{hdrTimestamp, 0x00, 0x00, 0x80, 0x00},   // zeros and 0x80 as payload
			[]byte{hdrISync, 0x00, 0x00, 0x00, 0x00, 0x80}, // i-sync with zero payload
			[]byte{0x81, 0x00}), []byte{12, 1, 1}},
		{"async-zero-runs", cat(
			async, isync, full,
			[]byte{0, 0, 0, 0, 0, 0x80}, []byte{0x05},
			[]byte{0, 0, 0, 0, 0, 0, 0x80}, []byte{0x05},
			[]byte{0, 0, 0, 0, 0, 0, 0, 0x80},
			[]byte{0, 0, 0, 0x80}, // three zeros, then 0x80 as a header
			[]byte{0x05, 0, 0x80}, // hunting for a sync
			async,
			[]byte{0, 0, 0, 0, 0x05},        // four zeros, then a branch
			[]byte{0, 0, 0, 0, 0, 0x08},     // five zeros, then an i-sync header
			[]byte{1, 2, 3, 4, 5, 0, 0x09}), // a lone zero between packets
			[]byte{6, 0, 5, 1, 1, 1, 30}},
		{"compressed-after-sync", cat(
			async, isync, full, []byte{0x85, 0x01},
			async, []byte{0x05}, // no baseline: inherits the old target
			async, isync, []byte{0x89, 0x02},
			async, []byte{0x87, 0x03, 0xe5}), // with an exception byte
			[]byte{20, 3}},
		{"random-garbage", garbage, []byte{1, 200, 0, 255}},
		{"garbage-between-syncs", syncedGarbage, []byte{50, 50, 50}},
		{"bit-flips", flipped, []byte{3, 1, 4, 1, 5, 9, 2, 6}},
	}
}

// TestStreamDecoderMatchesReference runs FuzzStreamDecoder's seeds under
// plain go test: the decoder against legacyDecoder after every byte, and
// NextBranch over the same bytes in pieces.
func TestStreamDecoderMatchesReference(t *testing.T) {
	for _, tc := range decoderCases() {
		t.Run(tc.name, func(t *testing.T) { checkDecoder(t, tc.stream, tc.cuts) })
	}
}

// FuzzStreamDecoder pins the decoder to legacyDecoder on arbitrary bytes,
// cut for NextBranch where the fuzzer says (see checkDecoder).
func FuzzStreamDecoder(f *testing.F) {
	for _, tc := range decoderCases() {
		f.Add(tc.stream, tc.cuts)
	}
	f.Fuzz(checkDecoder)
}
