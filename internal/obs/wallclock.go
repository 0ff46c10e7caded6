package obs

import (
	"io"
	"time"
)

// WallTracer is the wall-clock half of the tracing layer: the same
// Chrome/Perfetto trace_event writer as the sim-time Tracer, but with
// timestamps taken from the host's monotonic clock instead of the
// simulation's picosecond timeline. The two clock domains never share a
// tracer — a sim-time trace is deterministic and byte-identical across
// runs, a wall trace is a measurement of this run of this host — so the
// serving plane (internal/serve, cmd/rtadd) records on a WallTracer while
// the simulation keeps its Tracer.
//
// All timestamps are offsets from the tracer's epoch (its construction
// time), so a trace opens at t=0 and spans read as "microseconds into the
// serving run". Spans carry their session ID in args, which is how a
// Perfetto query correlates a span with the structured log lines and the
// flight-recorder events of the same session.
//
// Like everything in this package, a nil *WallTracer or *WallTrack is a
// valid no-op receiver: the un-traced daemon pays one nil check per site.
type WallTracer struct {
	tr    *Tracer
	epoch time.Time
}

// NewWallTracer returns a wall-clock tracer whose epoch is now.
func NewWallTracer() *WallTracer {
	return &WallTracer{tr: NewTracer(), epoch: time.Now()}
}

// SetEventLimit bounds the event buffer (see Tracer.SetEventLimit).
func (w *WallTracer) SetEventLimit(n int) {
	if w == nil {
		return
	}
	w.tr.SetEventLimit(n)
}

// Events reports the number of recorded events (0 on a nil receiver).
func (w *WallTracer) Events() int {
	if w == nil {
		return 0
	}
	return w.tr.Events()
}

// Track returns the wall-clock timeline named thread inside the process
// domain. Returns nil on a nil tracer.
func (w *WallTracer) Track(domain, thread string) *WallTrack {
	if w == nil {
		return nil
	}
	return &WallTrack{tk: w.tr.Track(domain, thread), epoch: w.epoch}
}

// WriteJSON exports the wall trace in the same trace_event JSON the
// sim-time tracer writes; ui.perfetto.dev opens it directly.
func (w *WallTracer) WriteJSON(out io.Writer) error {
	if w == nil {
		return (*Tracer)(nil).WriteJSON(out)
	}
	return w.tr.WriteJSON(out)
}

// WallTrack is one wall-clock timeline. A nil *WallTrack discards
// everything recorded on it.
type WallTrack struct {
	tk    *Track
	epoch time.Time
}

// toPS converts a wall instant to picoseconds since the tracer epoch (the
// underlying writer's native unit).
func (wt *WallTrack) toPS(at time.Time) int64 {
	return at.Sub(wt.epoch).Nanoseconds() * 1000
}

// Span records a complete wall-clock slice [start, end] on the track.
// No-op on a nil receiver.
func (wt *WallTrack) Span(name string, start, end time.Time, args map[string]any) {
	if wt == nil {
		return
	}
	wt.tk.Span(name, wt.toPS(start), wt.toPS(end), args)
}

// Since records a span from start to now — the usual shape at the end of
// an instrumented stretch:
//
//	t0 := time.Now()
//	... work ...
//	track.Since("feed", t0, map[string]any{"session": id})
//
// No-op on a nil receiver.
func (wt *WallTrack) Since(name string, start time.Time, args map[string]any) {
	if wt == nil {
		return
	}
	wt.tk.Span(name, wt.toPS(start), wt.toPS(time.Now()), args)
}
