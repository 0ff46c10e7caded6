package tpiu

import (
	"testing"

	"rtad/internal/sim"
)

// TestFormatterTakeIntoZeroAlloc pins the formatter hand-off: pushing a
// frame's worth of bytes and draining through a recycled buffer allocates
// nothing once warm.
func TestFormatterTakeIntoZeroAlloc(t *testing.T) {
	f := NewFormatter(Config{})
	var out []TimedWord
	var at sim.Time
	push := func() {
		for b := 0; b < PayloadBytes; b++ {
			at += 1000
			f.Push(at, byte(b))
		}
		out = f.TakeInto(out[:0])
	}
	for i := 0; i < 64; i++ { // warm-up
		push()
	}
	allocs := testing.AllocsPerRun(500, push)
	if allocs > 0 {
		t.Fatalf("Push+TakeInto allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestDeframerFeedZeroAlloc pins the borrowed-payload contract: deframing
// never allocates, because the returned slice is a window into the
// deframer's own frame buffer.
func TestDeframerFeedZeroAlloc(t *testing.T) {
	f := NewFormatter(Config{})
	var at sim.Time
	for b := 0; b < PayloadBytes; b++ {
		at += 1000
		f.Push(at, byte(b))
	}
	words := f.TakeInto(nil)
	if len(words) != FrameBytes/4 {
		t.Fatalf("expected one frame (%d words), got %d", FrameBytes/4, len(words))
	}

	d := NewDeframer()
	i := 0
	var payloads int
	allocs := testing.AllocsPerRun(200, func() {
		if got := d.Feed(words[i%len(words)].W); len(got) > 0 {
			payloads++
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("Deframer.Feed allocates %.2f objects/op, want 0", allocs)
	}
	if payloads == 0 {
		t.Fatal("no frames completed — the path under test did not run")
	}
}

// TestDeframerFeedPayloadReuse documents the borrow semantics: the payload
// window returned by Feed aliases the deframer's buffer, so its contents are
// only stable until the next Feed.
func TestDeframerFeedPayloadReuse(t *testing.T) {
	mkFrame := func(fill byte) [FrameBytes / 4]uint32 {
		var frame [FrameBytes]byte
		frame[0] = DefaultSourceID
		for i := 1; i < FrameBytes-1; i++ {
			frame[i] = fill
		}
		frame[FrameBytes-1] = PayloadBytes
		var ws [FrameBytes / 4]uint32
		for i := range ws {
			ws[i] = uint32(frame[4*i]) | uint32(frame[4*i+1])<<8 |
				uint32(frame[4*i+2])<<16 | uint32(frame[4*i+3])<<24
		}
		return ws
	}
	d := NewDeframer()
	var first []byte
	for _, w := range mkFrame(0xAA) {
		if got := d.Feed(w); len(got) > 0 {
			first = got
		}
	}
	if len(first) != PayloadBytes || first[0] != 0xAA {
		t.Fatalf("first payload = % x", first)
	}
	for _, w := range mkFrame(0xBB) {
		d.Feed(w)
	}
	// The earlier window now shows the second frame's bytes: callers must
	// consume before the next Feed, which every pipeline stage does.
	if first[0] != 0xBB {
		t.Fatalf("borrowed payload not aliased (= %#x); update the Feed contract docs", first[0])
	}
}
