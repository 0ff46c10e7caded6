package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWallTracerNilSafety(t *testing.T) {
	var w *WallTracer
	w.SetEventLimit(10)
	if got := w.Events(); got != 0 {
		t.Errorf("nil tracer Events = %d", got)
	}
	tk := w.Track("d", "t")
	if tk != nil {
		t.Fatal("nil tracer returned a non-nil track")
	}
	tk.Span("s", time.Now(), time.Now(), nil)
	tk.Since("s", time.Now(), nil)
	var b strings.Builder
	if err := w.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Errorf("nil tracer JSON = %q, want an empty trace document", b.String())
	}
}

func TestWallTracerSpans(t *testing.T) {
	w := NewWallTracer()
	epoch := w.epoch
	tk := w.Track("serve", "s-1")
	// Fixed instants relative to the epoch make the µs offsets exact.
	tk.Span("admission", epoch.Add(10*time.Microsecond), epoch.Add(35*time.Microsecond),
		map[string]any{"session": "s-1"})
	// 2 = thread_name metadata (from Track) + span.
	if w.Events() != 2 {
		t.Fatalf("Events = %d, want 2", w.Events())
	}

	var b strings.Builder
	if err := w.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var span map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			span = ev
		}
	}
	if span == nil {
		t.Fatal("no complete-span event in the trace")
	}
	// The wall domain maps ns→ps, so trace timestamps are µs since epoch.
	if ts := span["ts"].(float64); ts != 10 {
		t.Errorf("span ts = %v µs, want 10", ts)
	}
	if dur := span["dur"].(float64); dur != 25 {
		t.Errorf("span dur = %v µs, want 25", dur)
	}
	args := span["args"].(map[string]any)
	if args["session"] != "s-1" {
		t.Errorf("span args = %v, want session s-1", args)
	}
}

func TestWallTrackSince(t *testing.T) {
	w := NewWallTracer()
	tk := w.Track("serve", "batcher")
	start := time.Now()
	tk.Since("flush", start, map[string]any{"reason": "window"})
	// 2 = thread_name metadata (from Track) + the span.
	if w.Events() != 2 {
		t.Fatalf("Events = %d, want 2", w.Events())
	}
	var b strings.Builder
	if err := w.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		if ts := ev["ts"].(float64); ts < 0 {
			t.Errorf("span starts before the epoch: ts = %v", ts)
		}
		if dur := ev["dur"].(float64); dur < 0 {
			t.Errorf("negative span duration %v", dur)
		}
		return
	}
	t.Fatal("no span event found")
}
