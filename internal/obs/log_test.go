package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLoggerFormats(t *testing.T) {
	var b bytes.Buffer
	log, err := NewLogger(&b, "text", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", "k", "v")
	if out := b.String(); !strings.Contains(out, "msg=hello") || !strings.Contains(out, "k=v") {
		t.Errorf("text line = %q", out)
	}

	b.Reset()
	log, err = NewLogger(&b, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", "k", "v")
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("json line %q: %v", b.String(), err)
	}
	if doc["msg"] != "hello" || doc["k"] != "v" {
		t.Errorf("json line = %v", doc)
	}

	if _, err := NewLogger(&b, "yaml", slog.LevelInfo); err == nil {
		t.Error("unknown format accepted")
	}

	// Level filtering holds.
	b.Reset()
	log, _ = NewLogger(&b, "text", slog.LevelWarn)
	log.Info("quiet")
	log.Warn("loud")
	if out := b.String(); strings.Contains(out, "quiet") || !strings.Contains(out, "loud") {
		t.Errorf("level filter broken: %q", out)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
		"INFO-4": slog.LevelDebug, // slog's own offset syntax passes through
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loudest"); err == nil {
		t.Error("nonsense level accepted")
	}
}

func TestSessionLogger(t *testing.T) {
	var b bytes.Buffer
	base, _ := NewLogger(&b, "text", slog.LevelInfo)
	SessionLogger(base, "s-7").Info("judged")
	if out := b.String(); !strings.Contains(out, SessionKey+"=s-7") {
		t.Errorf("session attribute missing: %q", out)
	}
	// A nil base degrades to discard, not a panic.
	SessionLogger(nil, "s-8").Info("dropped")
}

func TestDiscardLogger(t *testing.T) {
	log := DiscardLogger()
	if log == nil {
		t.Fatal("DiscardLogger returned nil")
	}
	log.Info("nothing", "k", "v")
	log.With("a", 1).WithGroup("g").Error("still nothing")
	if log.Enabled(nil, slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}
