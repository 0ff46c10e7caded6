// Package tpiu models the CoreSight Trace Port Interface Unit: the SoC-edge
// block that packs trace-source bytes into fixed 16-byte frames and drives
// them over a 32-bit port, one word per fabric cycle. In the RTAD SoC the
// port pins are looped back on-chip into the MLPU (Fig 1), so the consumer
// is IGM's trace analyzer rather than an off-chip probe.
//
// Frame layout (16 bytes):
//
//	byte 0      trace-source ID (the PTM's ATID)
//	bytes 1–14  payload trace bytes
//	byte 15     valid-payload count (1–14; partial frames occur on flush)
//
// This is simpler than the CoreSight odd/even-byte interleave but preserves
// what the evaluation depends on: fixed-size framing (so partial data waits
// for a frame boundary), a one-byte-per-frame ID plus trailer overhead, and
// a 32-bit word-per-cycle output rate.
package tpiu

import (
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// FrameBytes is the fixed frame size.
const FrameBytes = 16

// PayloadBytes is the usable trace capacity per frame.
const PayloadBytes = FrameBytes - 2

// DefaultSourceID is the ATID assigned to the PTM, the port's only trace
// source: every formatter stamps it and every deframer expects it.
const DefaultSourceID byte = 0x41

// TimedWord is one 32-bit beat on the trace port with its emission time.
type TimedWord struct {
	At sim.Time
	W  uint32
}

// Config parameterises the formatter. The port runs on sim.FabricClock
// and stamps DefaultSourceID.
type Config struct {
	// Telemetry, when non-nil, records emitted frames as spans on the
	// fabric/tpiu track plus frame/byte counters. Observation-only.
	Telemetry *obs.Telemetry
}

// Formatter packs timed trace bytes into frames and emits them as timed
// 32-bit words. A frame is emitted only once full (or on Flush), which adds
// the framing component of the trace-visibility latency in Fig 7.
//
// Like ptm.Port, the formatter has two modes chosen by the Push family in
// use: the staged mode (Push/Flush/TakeInto) materialises frame words as
// TimedWords; the counted fast-path mode (PushCounted/FlushCounted) keeps
// only a byte-count cursor and reports each frame's emission beat as a
// FrameEmit — same timing algebra, no frame bytes or port words. One
// formatter instance must stay in one mode.
type Formatter struct {
	buf    []byte
	cnt    int      // counted-mode buffered bytes (staged mode uses len(buf))
	bufAt  sim.Time // time the most recent buffered byte arrived
	freeAt sim.Time // next instant the output port is free
	out    []TimedWord

	pushed int64 // total trace bytes accepted into the frame buffer
	maxBuf int

	obsFrames *obs.Counter
	obsBytes  *obs.Counter
	track     *obs.Track
}

// FrameEmit describes one frame emission on the fused fast path: the port
// instant of the frame's last (fourth) word, and how many payload bytes the
// frame carries. A downstream consumer sees the whole frame — and therefore
// every packet completed by its payload — once that last word lands.
type FrameEmit struct {
	LastWordAt sim.Time
	Payload    int
}

// NewFormatter returns a formatter with cfg applied.
func NewFormatter(cfg Config) *Formatter {
	f := &Formatter{}
	if tel := cfg.Telemetry; tel != nil {
		f.obsFrames = tel.Counter("rtad_tpiu_frames_total")
		f.obsBytes = tel.Counter("rtad_tpiu_bytes_total")
		f.track = tel.Track("fabric", "tpiu")
	}
	return f
}

// StageName identifies the formatter in pipeline stage listings.
func (f *Formatter) StageName() string { return "tpiu" }

// QueueStats reports the frame-assembly buffer as a uniform queue snapshot.
// The formatter is lossless by construction — every byte waits in the
// unbounded frame buffer for a frame boundary, nothing is ever refused —
// so Overflows and Dropped are 0 by design, and Accepted counts every
// trace byte admitted.
func (f *Formatter) QueueStats() sim.QueueStats {
	return sim.QueueStats{Len: len(f.buf) + f.cnt, MaxDepth: f.maxBuf, Accepted: f.pushed}
}

// Push adds one trace byte arriving at time at.
func (f *Formatter) Push(at sim.Time, b byte) {
	f.buf = append(f.buf, b)
	f.pushed++
	f.obsBytes.Inc()
	if len(f.buf) > f.maxBuf {
		f.maxBuf = len(f.buf)
	}
	if at > f.bufAt {
		f.bufAt = at
	}
	if len(f.buf) >= PayloadBytes {
		f.emit()
	}
}

// Flush emits any partial frame at time at (trace-run end, or the driver's
// formatter-stop sequence).
func (f *Formatter) Flush(at sim.Time) {
	if len(f.buf) == 0 {
		return
	}
	if at > f.bufAt {
		f.bufAt = at
	}
	f.emit()
}

// emit frames the first PayloadBytes (or fewer) buffered bytes and schedules
// the frame's four words on the port.
func (f *Formatter) emit() {
	n := len(f.buf)
	if n > PayloadBytes {
		n = PayloadBytes
	}
	var frame [FrameBytes]byte
	frame[0] = DefaultSourceID
	copy(frame[1:1+n], f.buf[:n])
	frame[FrameBytes-1] = byte(n)
	f.buf = f.buf[:copy(f.buf, f.buf[n:])]

	beat := sim.FabricClock.NextEdge(f.bufAt)
	if beat < f.freeAt {
		beat = f.freeAt
	}
	emitStart := beat
	for i := 0; i < FrameBytes; i += 4 {
		w := uint32(frame[i]) | uint32(frame[i+1])<<8 |
			uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
		f.out = append(f.out, TimedWord{At: beat, W: w})
		beat += sim.FabricClock.Period()
	}
	if f.track != nil {
		f.track.Span("frame", int64(emitStart), int64(beat),
			map[string]any{"payload": n})
	}
	f.obsFrames.Inc()
	f.freeAt = beat

	if len(f.buf) >= PayloadBytes {
		f.emit()
	}
}

// PushCounted is the fused fast-path form of Push: it accounts for n trace
// bytes arriving per a port release schedule — byte j of the burst arrives
// at start + (j/group)*step — without materialising bytes or words. One
// FrameEmit is appended to dst per frame boundary the burst crosses.
// Timing, counters, spans, and queue statistics are bit-identical to
// feeding the same bytes through Push one call each.
func (f *Formatter) PushCounted(start, step sim.Time, group, n int, dst []FrameEmit) []FrameEmit {
	if n <= 0 {
		return dst
	}
	f.pushed += int64(n)
	f.obsBytes.Add(int64(n))
	if peak := f.cnt + n; peak > f.maxBuf {
		// The staged buffer grows one byte per Push, so within a burst it
		// peaks at exactly PayloadBytes whenever a frame completes.
		if peak > PayloadBytes {
			peak = PayloadBytes
		}
		if peak > f.maxBuf {
			f.maxBuf = peak
		}
	}
	// The buffer reaches PayloadBytes at burst byte j = PayloadBytes-1-cnt,
	// then again every PayloadBytes bytes. bufAt advances to each trigger
	// byte's arrival before its emit, exactly as the staged per-byte Push
	// sequence would leave it.
	for j := PayloadBytes - 1 - f.cnt; j < n; j += PayloadBytes {
		if t := start + sim.Time(j/group)*step; t > f.bufAt {
			f.bufAt = t
		}
		dst = append(dst, f.emitCounted(PayloadBytes))
	}
	// Residual partial-frame bytes still advance bufAt (they condition the
	// next emit's beat), up to the burst's last byte.
	if t := start + sim.Time((n-1)/group)*step; t > f.bufAt {
		f.bufAt = t
	}
	f.cnt = (f.cnt + n) % PayloadBytes
	return dst
}

// FlushCounted is the fused fast-path form of Flush: any counted partial
// frame is emitted at time at. The second result is false when nothing was
// buffered.
func (f *Formatter) FlushCounted(at sim.Time) (FrameEmit, bool) {
	if f.cnt == 0 {
		return FrameEmit{}, false
	}
	if at > f.bufAt {
		f.bufAt = at
	}
	fe := f.emitCounted(f.cnt)
	f.cnt = 0
	return fe, true
}

// emitCounted schedules one frame's four words on the port analytically,
// mirroring emit's beat selection, telemetry, and counters without
// materialising the words.
func (f *Formatter) emitCounted(n int) FrameEmit {
	beat := sim.FabricClock.NextEdge(f.bufAt)
	if beat < f.freeAt {
		beat = f.freeAt
	}
	period := sim.FabricClock.Period()
	end := beat + sim.Time(FrameBytes/4)*period
	if f.track != nil {
		f.track.Span("frame", int64(beat), int64(end),
			map[string]any{"payload": n})
	}
	f.obsFrames.Inc()
	f.freeAt = end
	return FrameEmit{LastWordAt: end - period, Payload: n}
}

// TakeInto appends the emitted word stream to dst, clears the internal
// queue (retaining its capacity for reuse), and returns the extended slice.
// A caller that recycles dst (`buf = fmtr.TakeInto(buf[:0])`) drains the
// formatter with zero steady-state allocations.
func (f *Formatter) TakeInto(dst []TimedWord) []TimedWord {
	dst = append(dst, f.out...)
	f.out = f.out[:0]
	return dst
}

// Deframer reassembles the payload byte stream from port words. It is the
// front half of IGM's trace analyzer.
type Deframer struct {
	frame [FrameBytes]byte
	nbuf  int

	// BadFrames counts frames whose source ID is not DefaultSourceID or
	// whose payload count is out of range.
	BadFrames int64
}

// NewDeframer returns a deframer accepting frames from DefaultSourceID.
func NewDeframer() *Deframer { return &Deframer{} }

// Feed consumes one 32-bit port word and returns any completed frame's
// payload bytes.
//
// Zero-allocation contract: the returned slice is a window into the
// deframer's own frame buffer and is only valid until the next Feed call.
// Consume (or copy) it before feeding the next word.
func (d *Deframer) Feed(w uint32) []byte {
	d.frame[d.nbuf] = byte(w)
	d.frame[d.nbuf+1] = byte(w >> 8)
	d.frame[d.nbuf+2] = byte(w >> 16)
	d.frame[d.nbuf+3] = byte(w >> 24)
	d.nbuf += 4
	if d.nbuf < FrameBytes {
		return nil
	}
	d.nbuf = 0
	if d.frame[0] != DefaultSourceID {
		d.BadFrames++
		return nil
	}
	n := int(d.frame[FrameBytes-1])
	if n < 1 || n > PayloadBytes {
		d.BadFrames++
		return nil
	}
	return d.frame[1 : 1+n]
}
