package serve

import (
	"log/slog"
	"time"

	"rtad/internal/obs"
)

// Option tunes a Server built by New. The zero configuration is usable:
// unlimited sessions, fleet width GOMAXPROCS, one-minute I/O deadlines, no
// batching, no telemetry. What a session simulates — backend, CUs, stride,
// replay gap, attack — is the client's hello, resolved and bounded by core.
type Option func(*config)

// WithMaxSessions bounds concurrently live sessions; a hello beyond the
// bound is rejected with an explicit ErrBusy frame rather than queued
// invisibly. 0 (the default) means unlimited.
func WithMaxSessions(n int) Option { return func(c *config) { c.MaxSessions = n } }

// WithWorkers sets the Fleet width the session runners share; 0 sizes it
// to GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.Workers = n } }

// WithTimeouts bounds the gap between client frames (read) and one
// response write (write). 0 keeps the 1-minute default for that side.
func WithTimeouts(read, write time.Duration) Option {
	return func(c *config) { c.ReadTimeout, c.WriteTimeout = read, write }
}

// WithBatching enables cross-session micro-batched inference: pending
// vectors from all admitted sessions (shadow lanes included) are collected
// for up to window wall time — or until max of them are waiting — and
// judged in one fused pass. Judgment streams are bit-identical to the
// unbatched path. window 0 disables batching; max 0 uses DefaultBatchMax.
func WithBatching(window time.Duration, max int) Option {
	return func(c *config) { c.BatchWindow, c.BatchMax = window, max }
}

// WithTelemetry records serve metrics — and the registry's
// rtad_serve_model_* lifecycle series — into tel.
func WithTelemetry(tel *obs.Telemetry) Option { return func(c *config) { c.Telemetry = tel } }

// WithLogger routes structured logs (session lifecycle, swap/canary
// transitions, errors, drain progress) to l.
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.Logger = l } }

// WithWallTracer records wall-clock spans of the serving path, exportable
// as Perfetto JSON.
func WithWallTracer(w *obs.WallTracer) Option { return func(c *config) { c.WallTracer = w } }

// WithFlight retains a bounded ring of recent per-session events, dumped
// on panic, protocol violation, or abort.
func WithFlight(f *obs.FlightRecorder) Option { return func(c *config) { c.Flight = f } }
