package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises every recording path through nil receivers; the
// whole instrumentation layer must be a no-op when telemetry is off.
func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	tel.Counter("c").Add(3)
	tel.Counter("c").Inc()
	tel.Gauge("g").Set(7)
	tel.Gauge("g").Max(9)
	tel.Histogram("h", ExpBuckets(1, 2, 4)).Observe(2)
	tel.Track("cpu", "core").Span("s", 0, 10, nil)
	tel.Track("cpu", "core").Instant("i", 5, nil)
	tel.Track("cpu", "core").Counter("depth", 5, 1)
	if tel.Lane("elm") != nil {
		t.Fatalf("nil telemetry Lane should stay nil")
	}
	if got := tel.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	var reg *Registry
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}
	if reg.Snapshot() != nil {
		t.Fatalf("nil registry snapshot should be nil")
	}
	var tr *Tracer
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil tracer export missing traceEvents: %q", buf.String())
	}
}

// TestRegistryConcurrency hammers one registry from 8 goroutines; run under
// -race this is the goroutine-safety proof for the metrics layer.
func TestRegistryConcurrency(t *testing.T) {
	const workers = 8
	const perWorker = 10_000
	reg := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("obs_test_ops_total")
			g := reg.Gauge("obs_test_progress")
			hw := reg.Gauge("obs_test_highwater")
			h := reg.Histogram("obs_test_latency", ExpBuckets(1, 2, 8))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				hw.Max(int64(w*perWorker + i))
				h.Observe(float64(i % 300))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("obs_test_ops_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := reg.Histogram("obs_test_latency", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var want float64
	for i := 0; i < perWorker; i++ {
		want += float64(i % 300)
	}
	if got := h.Sum(); got != want*workers {
		t.Fatalf("histogram sum = %v, want %v", got, want*workers)
	}
	if got := reg.Gauge("obs_test_progress").Value(); got < 0 || got >= perWorker {
		t.Fatalf("gauge = %d, want in [0,%d)", got, perWorker)
	}
	if got := reg.Gauge("obs_test_highwater").Value(); got != workers*perWorker-1 {
		t.Fatalf("high-water gauge = %d, want %d", got, workers*perWorker-1)
	}
}

// TestHistogramBuckets pins the le-bound semantics: an observation lands in
// the first bucket whose bound is >= the value.
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3.9, 4, 5, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=1: 0.5, 1 -> 2; le=2: +1.0000001, 2 -> 4; le=4: +3.9, 4 -> 6; +Inf: 8.
	wantCum := []int64{2, 4, 6}
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], wantCum[i], cum)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 4`,
		`h_bucket{le="4"} 6`,
		`h_bucket{le="+Inf"} 8`,
		"h_count 8",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("exposition missing %q:\n%s", line, buf.String())
		}
	}
}

// TestBucketHelpers pins the generator shapes.
func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.5, 2, 4)
	for i, want := range []float64{0.5, 1, 2, 4} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
}

// TestRegistryMerge checks the serial fleet-level merge: counters and
// histograms add, gauges take the source value.
func TestRegistryMerge(t *testing.T) {
	dst, a, b := NewRegistry(), NewRegistry(), NewRegistry()
	a.Counter("jobs").Add(2)
	b.Counter("jobs").Add(3)
	a.Gauge("cycles").Set(10)
	b.Gauge("cycles").Set(20)
	bounds := []float64{1, 10}
	a.Histogram("lat", bounds).Observe(0.5)
	a.Histogram("lat", bounds).Observe(5)
	b.Histogram("lat", bounds).Observe(50)
	dst.Merge(a)
	dst.Merge(b)
	if got := dst.Counter("jobs").Value(); got != 5 {
		t.Fatalf("merged counter = %d", got)
	}
	if got := dst.Gauge("cycles").Value(); got != 20 {
		t.Fatalf("merged gauge = %d (last merge wins)", got)
	}
	h := dst.Histogram("lat", bounds)
	if h.Count() != 3 || h.Sum() != 55.5 {
		t.Fatalf("merged histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	_, cum := h.Buckets()
	if cum[0] != 1 || cum[1] != 2 {
		t.Fatalf("merged cumulative = %v", cum)
	}
}

// TestSnapshotDeterminism: two identically-driven registries snapshot to
// identical structures and expositions.
func TestSnapshotDeterminism(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("z_last").Add(1)
		r.Counter("a_first").Add(2)
		r.Gauge("mid").Set(3)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := mk().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// Names must come out sorted.
	if ai, zi := strings.Index(b1.String(), "a_first"), strings.Index(b1.String(), "z_last"); ai > zi {
		t.Fatalf("exposition not sorted:\n%s", b1.String())
	}
}
