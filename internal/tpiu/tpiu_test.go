package tpiu

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := NewFormatter(Config{})
	d := NewDeframer(0)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i, b := range payload {
		f.Push(sim.Time(i)*sim.Nanosecond, b)
	}
	f.Flush(sim.Microsecond)
	var got []byte
	for _, w := range f.TakeInto(nil) {
		got = append(got, d.Feed(w.W)...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("deframed %d bytes != pushed %d bytes", len(got), len(payload))
	}
	if d.BadFrames != 0 {
		t.Errorf("BadFrames = %d", d.BadFrames)
	}
	wantFrames := (len(payload) + PayloadBytes - 1) / PayloadBytes
	if f.Frames() != int64(wantFrames) {
		t.Errorf("Frames = %d, want %d", f.Frames(), wantFrames)
	}
}

func TestPartialFrameNeedsFlush(t *testing.T) {
	f := NewFormatter(Config{})
	for i := 0; i < PayloadBytes-1; i++ {
		f.Push(0, byte(i))
	}
	if len(f.TakeInto(nil)) != 0 {
		t.Fatal("partial frame emitted without flush")
	}
	if f.Buffered() != PayloadBytes-1 {
		t.Errorf("Buffered = %d", f.Buffered())
	}
	f.Flush(0)
	words := f.TakeInto(nil)
	if len(words) != FrameBytes/4 {
		t.Fatalf("flush emitted %d words, want %d", len(words), FrameBytes/4)
	}
}

func TestWordTiming(t *testing.T) {
	f := NewFormatter(Config{})
	at := 100 * sim.Nanosecond
	for i := 0; i < PayloadBytes; i++ {
		f.Push(at, 0xAA)
	}
	words := f.TakeInto(nil)
	if len(words) != 4 {
		t.Fatalf("%d words", len(words))
	}
	if words[0].At < at {
		t.Errorf("first word at %v before data at %v", words[0].At, at)
	}
	for i := 1; i < 4; i++ {
		if words[i].At != words[i-1].At+sim.FabricClock.Period() {
			t.Errorf("word %d not one fabric cycle after word %d", i, i-1)
		}
	}
	// Port must serialise consecutive frames.
	for i := 0; i < PayloadBytes; i++ {
		f.Push(at, 0xBB)
	}
	second := f.TakeInto(nil)
	if second[0].At < words[3].At+sim.FabricClock.Period() {
		t.Error("second frame overlaps first on the port")
	}
}

func TestDeframerRejectsWrongSource(t *testing.T) {
	f := NewFormatter(Config{SourceID: 0x41})
	d := NewDeframer(0x42)
	for i := 0; i < PayloadBytes; i++ {
		f.Push(0, 1)
	}
	var got []byte
	for _, w := range f.TakeInto(nil) {
		got = append(got, d.Feed(w.W)...)
	}
	if len(got) != 0 || d.BadFrames != 1 {
		t.Errorf("wrong-source frame accepted: %d bytes, bad=%d", len(got), d.BadFrames)
	}
}

func TestDeframerRejectsBadCount(t *testing.T) {
	d := NewDeframer(0)
	var frame [FrameBytes]byte
	frame[0] = DefaultSourceID
	frame[FrameBytes-1] = PayloadBytes + 1 // invalid
	for i := 0; i < FrameBytes; i += 4 {
		w := uint32(frame[i]) | uint32(frame[i+1])<<8 | uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
		d.Feed(w)
	}
	if d.BadFrames != 1 {
		t.Errorf("BadFrames = %d, want 1", d.BadFrames)
	}
}

// Property: any byte sequence survives format -> deframe unchanged.
func TestFormatterDeframerProperty(t *testing.T) {
	prop := func(payload []byte) bool {
		f := NewFormatter(Config{})
		d := NewDeframer(0)
		for i, b := range payload {
			f.Push(sim.Time(i), b)
		}
		f.Flush(sim.Time(len(payload)))
		var got []byte
		for _, w := range f.TakeInto(nil) {
			got = append(got, d.Feed(w.W)...)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// End-to-end: PTM encode -> port -> TPIU frames -> deframe -> PTM decode
// recovers the branch sequence exactly (the full CoreSight path of Fig 1).
func TestCoreSightPathEndToEnd(t *testing.T) {
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true, SyncEvery: 32})
	port := ptm.NewPort(ptm.PortConfig{DrainThreshold: 64})
	fmtr := NewFormatter(Config{})
	defr := NewDeframer(0)
	dec := ptm.NewStreamDecoder()

	r := rand.New(rand.NewSource(5))
	var want []uint32
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		now += sim.Time(r.Intn(50)) * sim.Nanosecond
		target := 0x8000 + uint32(r.Intn(1<<14))&^3
		taken := r.Intn(5) != 0
		if taken {
			want = append(want, target)
		}
		ev := cpu.BranchEvent{PC: 0x8000, Target: target, Kind: cpu.KindDirect, Taken: taken}
		port.Push(now, enc.EncodeInto(nil, ev))
	}
	port.Push(now, enc.Flush())
	port.Flush(now)
	for _, tb := range port.TakeInto(nil) {
		fmtr.Push(tb.At, tb.B)
	}
	fmtr.Flush(now)

	var got []uint32
	lastAt := sim.Time(-1)
	for _, w := range fmtr.TakeInto(nil) {
		if w.At < lastAt {
			t.Fatal("port words out of time order")
		}
		lastAt = w.At
		for _, b := range defr.Feed(w.W) {
			for _, pkt := range dec.Feed(b) {
				if pkt.Type == ptm.PktBranch {
					got = append(got, pkt.Addr)
				}
			}
		}
	}
	if dec.Errors != 0 {
		t.Fatalf("decoder errors: %d", dec.Errors)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d branches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("branch %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}
