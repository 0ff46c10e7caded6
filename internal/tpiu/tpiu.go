// Package tpiu models the CoreSight Trace Port Interface Unit: the SoC-edge
// block that packs trace-source bytes into fixed 16-byte frames and drives
// them over a 32-bit port, one word per fabric cycle. In the RTAD SoC the
// port pins are looped back on-chip into the MLPU (Fig 1), so the consumer
// is IGM's trace analyzer rather than an off-chip probe.
//
// Frame layout (16 bytes):
//
//	byte 0      trace-source ID (the PTM's ATID, 0x41)
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

// Config parameterises the formatter. The port runs on sim.FabricClock.
type Config struct {
	// Telemetry, when non-nil, records emitted frames as spans on the
	// fabric/tpiu track plus frame/byte counters. Observation-only.
	Telemetry *obs.Telemetry
}

// Formatter packs timed trace bytes into frames and emits each frame as
// four 32-bit words, one per fabric cycle. A frame is emitted only once
// full (or on FlushCounted), which adds the framing component of the
// trace-visibility latency in Fig 7. The formatter keeps only a byte-count
// cursor and reports each frame's emission beat as a FrameEmit; no frame
// byte or port word is stored.
type Formatter struct {
	cnt    int      // buffered bytes: the partial frame's payload
	bufAt  sim.Time // time the most recent buffered byte arrived
	freeAt sim.Time // next instant the output port is free

	pushed int64 // total trace bytes accepted into the frame buffer
	maxBuf int

	obsFrames *obs.Counter
	obsBytes  *obs.Counter
	track     *obs.Track
}

// FrameEmit describes one frame emission: the port instant of the frame's
// last (fourth) word, and how many payload bytes the frame carries. A downstream consumer sees the whole frame — and therefore
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
	return sim.QueueStats{Len: f.cnt, MaxDepth: f.maxBuf, Accepted: f.pushed}
}

// PushCounted accounts for n trace bytes arriving per a port release
// schedule — byte j of the burst arrives at start + (j/group)*step. One
// FrameEmit is appended to dst per frame boundary the burst crosses: a
// frame fills, and is emitted, when its PayloadBytes-th byte arrives.
func (f *Formatter) PushCounted(start, step sim.Time, group, n int, dst []FrameEmit) []FrameEmit {
	if n <= 0 {
		return dst
	}
	f.pushed += int64(n)
	f.obsBytes.Add(int64(n))
	if peak := f.cnt + n; peak > f.maxBuf {
		// The buffer grows one byte at a time, so within a burst it peaks
		// at exactly PayloadBytes whenever a frame completes.
		if peak > PayloadBytes {
			peak = PayloadBytes
		}
		if peak > f.maxBuf {
			f.maxBuf = peak
		}
	}
	// The buffer reaches PayloadBytes at burst byte j = PayloadBytes-1-cnt,
	// then again every PayloadBytes bytes. bufAt advances to each trigger
	// byte's arrival before its emit.
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

// FlushCounted emits any partial frame at time at (trace-run end, or the
// driver's formatter-stop sequence). The second result is false when
// nothing was buffered.
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

// emitCounted schedules one frame's four words on the port: the first on
// the first fabric edge at or after the latest byte's arrival, once the
// previous frame has left.
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
