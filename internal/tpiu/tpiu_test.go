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

// Property: every byte pushed leaves as payload of exactly one frame, in
// bursts of any size. Frames fill to PayloadBytes; only the flush emits a
// partial one, and the port sends each frame's four words after the
// previous frame's.
func TestFrameRoundTrip(t *testing.T) {
	prop := func(bursts []uint8) bool {
		f := NewFormatter(Config{})
		var fes []FrameEmit
		var at sim.Time
		total := 0
		for _, n := range bursts {
			at += 100 * sim.Nanosecond
			fes = f.PushCounted(at, 8*sim.Nanosecond, 4, int(n), fes)
			total += int(n)
		}
		full := len(fes)
		if fe, ok := f.FlushCounted(at); ok {
			fes = append(fes, fe)
		}
		got := 0
		for i, fe := range fes {
			if i < full && fe.Payload != PayloadBytes {
				return false
			}
			if i > 0 && fe.LastWordAt < fes[i-1].LastWordAt+4*8*sim.Nanosecond {
				return false
			}
			got += fe.Payload
		}
		qs := f.QueueStats()
		return got == total && qs.Accepted == int64(total) && qs.Len == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: any byte sequence survives format -> deframe unchanged. The
// formatter counts bytes rather than storing them, so each frame it emits
// is packed here in the layout the package documents (source ID 0x41, the
// next Payload pushed bytes, the count) and deframed by checking the ID
// and count: in bursts of any size the frames must give back the pushed
// bytes in order, and no frame's last word may land before its last
// payload byte arrived and three words went ahead of it.
func TestFormatterDeframerProperty(t *testing.T) {
	const sourceID = 0x41
	step := 8 * sim.Nanosecond
	period := sim.FabricClock.Period()
	prop := func(payload []byte, cuts []uint8) bool {
		f := NewFormatter(Config{})
		arrived := make([]sim.Time, len(payload))
		var fes []FrameEmit
		at := sim.Time(0)
		for i, c := 0, 0; i < len(payload); c++ {
			n := len(payload) - i
			if c < len(cuts) {
				n = min(n, int(cuts[c])%(3*PayloadBytes)+1)
			}
			for j := range n {
				arrived[i+j] = at + sim.Time(j/4)*step
			}
			fes = f.PushCounted(at, step, 4, n, fes)
			at = arrived[i+n-1] + step + sim.Time(c%3)*100*sim.Nanosecond
			i += n
		}
		if fe, ok := f.FlushCounted(at); ok {
			fes = append(fes, fe)
		}
		var got []byte
		next := 0
		for _, fe := range fes {
			if fe.Payload < 1 || next+fe.Payload > len(payload) {
				return false
			}
			var frame [FrameBytes]byte
			frame[0] = sourceID
			copy(frame[1:], payload[next:next+fe.Payload])
			frame[FrameBytes-1] = byte(fe.Payload)
			next += fe.Payload
			if fe.LastWordAt < arrived[next-1]+3*period {
				return false
			}
			n := int(frame[FrameBytes-1])
			if frame[0] != sourceID || n > PayloadBytes {
				return false
			}
			got = append(got, frame[1:1+n]...)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartialFrameNeedsFlush(t *testing.T) {
	f := NewFormatter(Config{})
	if fes := f.PushCounted(0, 8*sim.Nanosecond, 4, PayloadBytes-1, nil); len(fes) != 0 {
		t.Fatal("partial frame emitted without flush")
	}
	if n := f.QueueStats().Len; n != PayloadBytes-1 {
		t.Errorf("buffered = %d", n)
	}
	fe, ok := f.FlushCounted(0)
	if !ok || fe.Payload != PayloadBytes-1 {
		t.Fatalf("flush emitted %+v (ok=%v), want a %d-byte frame", fe, ok, PayloadBytes-1)
	}
	if _, ok := f.FlushCounted(0); ok {
		t.Error("second flush emitted a frame")
	}
}

func TestWordTiming(t *testing.T) {
	// 14 bytes arrive 4 per 8 ns beat from 100 ns, the last at 124 ns. The
	// frame's words go on the next fabric edge, 128 ns, one per 8 ns, so
	// the fourth lands at 152 ns.
	f := NewFormatter(Config{})
	step := 8 * sim.Nanosecond
	fes := f.PushCounted(100*sim.Nanosecond, step, 4, PayloadBytes, nil)
	if len(fes) != 1 || fes[0].LastWordAt != 152*sim.Nanosecond || fes[0].Payload != PayloadBytes {
		t.Fatalf("frame %+v, want one full frame with its last word at 152ns", fes)
	}
	// The port serialises frames: a second frame of bytes that arrived as
	// early starts after the first frame's fourth word, at 160 ns.
	fes = f.PushCounted(100*sim.Nanosecond, step, 4, PayloadBytes, fes[:0])
	if len(fes) != 1 || fes[0].LastWordAt != 184*sim.Nanosecond {
		t.Fatalf("second frame %+v, want its last word at 184ns", fes)
	}
}

// End-to-end: PTM encode -> port -> TPIU frames delivers every packet the
// encoder completes, in order, once the frame carrying its last byte
// lands, so the branch sequence is recovered exactly (the CoreSight path
// of Fig 1, counted).
func TestCoreSightPathEndToEnd(t *testing.T) {
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true, SyncEvery: 32})
	port := ptm.NewPort(ptm.PortConfig{DrainThreshold: 64})
	fmtr := NewFormatter(Config{})

	var (
		marks   []ptm.PacketMark
		fes     []FrameEmit
		fed     int64
		got     []uint32
		lastAt  sim.Time
		pending int
	)
	frames := func(emitted []FrameEmit) {
		for _, fe := range emitted {
			if fe.LastWordAt < lastAt {
				t.Fatal("frames out of time order")
			}
			lastAt = fe.LastWordAt
			fed += int64(fe.Payload)
			for ; pending < len(marks) && marks[pending].End <= fed; pending++ {
				if marks[pending].Branch {
					got = append(got, marks[pending].Addr)
				}
			}
		}
	}
	deliver := func(rel ptm.Release) {
		fes = fmtr.PushCounted(rel.Start, rel.Step, rel.Group, rel.Bytes, fes[:0])
		frames(fes)
	}

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
		var n int
		marks, n = enc.EncodeCounted(marks, ev)
		rel, _ := port.PushCounted(now, n)
		deliver(rel)
	}
	var n int
	marks, n = enc.FlushCounted(marks)
	rel, _ := port.PushCounted(now, n)
	deliver(rel)
	deliver(port.FlushCounted(now))
	if fe, ok := fmtr.FlushCounted(now); ok {
		frames([]FrameEmit{fe})
	}
	if pending != len(marks) {
		t.Fatalf("%d of %d packets never delivered", len(marks)-pending, len(marks))
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
