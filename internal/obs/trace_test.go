package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// buildTrace records a small fixed timeline.
func buildTrace() *Tracer {
	tr := NewTracer()
	tel := &Telemetry{Tracer: tr}
	cpu := tel.Track("cpu", "core0")
	fab := tel.Track("fabric", "ptm")
	cpu.Span("run", 0, 4_000_000, map[string]any{"instr": 100})
	fab.Span("release", 1_000_000, 1_512_000, map[string]any{"bytes": 64})
	fab.Instant("vector", 2_000_000, nil)
	fab.Counter("fifo_depth", 2_000_000, 3)
	return tr
}

// golden is the exact expected export of buildTrace. It pins the format:
// ts/dur in microseconds, metadata first, events in record order.
const golden = `{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"cpu"}},
{"name":"process_name","ph":"M","pid":2,"args":{"name":"fabric"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"core0"}},
{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"ptm"}},
{"name":"run","ph":"X","ts":0,"dur":4,"pid":1,"tid":1,"args":{"instr":100}},
{"name":"release","ph":"X","ts":1,"dur":0.512,"pid":2,"tid":2,"args":{"bytes":64}},
{"name":"vector","ph":"i","ts":2,"pid":2,"tid":2,"s":"t"},
{"name":"fifo_depth","ph":"C","ts":2,"pid":2,"tid":2,"args":{"value":3}}
]}
`

// TestTraceGolden pins the trace export byte-for-byte and checks it is
// valid JSON in the trace_event shape Perfetto expects.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Fatalf("trace export mismatch:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("event missing ph: %v", ev)
		}
	}
}

// TestTraceDeterminism: recording the same timeline twice exports
// byte-identical files.
func TestTraceDeterminism(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := buildTrace().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("trace export not deterministic")
	}
}

// TestTraceEventLimit: past the cap, events are counted dropped, the export
// stays valid, and the drop count is declared in otherData.
func TestTraceEventLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetEventLimit(3)
	tk := tr.Track("cpu", "core0") // thread_name metadata consumes one slot
	for i := 0; i < 10; i++ {
		tk.Instant("e", int64(i), nil)
	}
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	if tr.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("truncated export invalid:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"droppedEvents":"8"`)) {
		t.Fatalf("export missing drop marker:\n%s", buf.String())
	}
}

// TestLanePrefix: lane telemetry lands on distinct tracks of the same
// tracer and distinct metrics of the same registry.
func TestLanePrefix(t *testing.T) {
	tel := New()
	a := tel.Lane("elm").Track("fabric", "mcm")
	b := tel.Lane("lstm").Track("fabric", "mcm")
	if a == b {
		t.Fatalf("prefixed tracks should differ")
	}
	names := tel.Tracer.TrackNames()
	want := map[string]bool{"fabric/elm/mcm": false, "fabric/lstm/mcm": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("missing track %q in %v", n, names)
		}
	}
	if tel.Lane("elm").Reg != tel.Reg {
		t.Fatalf("Lane must share the registry")
	}
	tel.Lane("elm").Counter("rtad_judgments_total").Inc()
	if got := tel.Reg.Counter("rtad_judgments_total_elm").Value(); got != 1 {
		t.Fatalf("lane counter rtad_judgments_total_elm = %d, want 1", got)
	}
}
