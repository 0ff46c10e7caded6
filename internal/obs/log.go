package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging for the serving plane, built on log/slog. The
// conventions live here so every emitter — internal/serve and
// cmd/rtadd — logs the same shape:
//
//   - one "session" attribute per session-scoped line, carrying the
//     SessionID the server minted in the welcome frame; grep (or jq) on it
//     joins the log with the wall trace's span args and the flight
//     recorder's per-session ring
//   - "text" format for humans at a terminal, "json" (one object per
//     line) for log shippers
//
// NewLogger never returns nil, and a nil *slog.Logger is not a valid
// no-op the way nil metrics are — callers that want silence use
// DiscardLogger.

// SessionKey is the attribute key carrying the session ID on every
// session-scoped log line, wall-trace span and flight-recorder event.
const SessionKey = "session"

// LogFormats lists the -log-format values NewLogger accepts.
const LogFormats = "text|json"

// NewLogger builds a logger writing to w in the given format ("text" or
// "json") at the given minimum level.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want %s)", format, LogFormats)
	}
}

// ParseLogLevel maps a -log-level flag value ("debug", "info", "warn",
// "error", or anything slog.Level.UnmarshalText accepts, like "INFO-4")
// to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
	return l, nil
}

// SessionLogger derives a logger whose every line carries the session
// correlation attribute. A nil base degrades to the discard logger.
func SessionLogger(base *slog.Logger, sessionID string) *slog.Logger {
	if base == nil {
		base = DiscardLogger()
	}
	return base.With(slog.String(SessionKey, sessionID))
}

// DiscardLogger returns a logger that drops everything — the explicit
// no-op for callers that must hold a non-nil *slog.Logger. Its handler
// reports every level disabled, so slog never assembles the record.
func DiscardLogger() *slog.Logger { return discardLogger }

var discardLogger = slog.New(discardHandler{})

// discardHandler is a zero-cost slog.Handler. (slog.DiscardHandler
// arrived in go1.24; this repo supports 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
