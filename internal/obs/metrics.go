// Package obs is the telemetry layer of the RTAD reproduction: a
// goroutine-safe metrics registry (atomic counters, gauges and fixed-bucket
// histograms), a sim-time event tracer exporting Chrome/Perfetto
// trace_event JSON, and Prometheus text/HTTP exposition. It depends only on
// the standard library so every layer of the simulator — sim kernel,
// CoreSight chain, MLPU, session/fleet — can import it freely.
//
// Everything is nil-safe: a nil *Telemetry, *Registry, *Counter, *Gauge,
// *Histogram, *Tracer or *Track is a valid no-op receiver, so instrumented
// code reads identically whether telemetry is enabled or not and an
// un-instrumented run pays only a nil check per recording site. Recording
// never mutates simulation state, which is what keeps instrumented runs
// bit-identical to bare ones.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-written-value metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v is larger (a high-water-mark update).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics: an
// observation v lands in the first bucket whose upper bound is >= v, or in
// the implicit +Inf overflow bucket. Buckets are fixed at construction so
// observation is lock-free (one atomic add per bucket hit plus a CAS loop
// for the running sum).
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram over the given (sorted, deduplicated)
// upper bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	n := 0
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			bs[n] = b
			n++
		}
	}
	bs = bs[:n]
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the upper bounds and the *cumulative* count at each bound
// (Prometheus le semantics), excluding +Inf.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.bounds))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named metrics. Registration takes a mutex; recording on
// the returned metric handles is lock-free. A nil *Registry hands out nil
// metric handles, so the whole instrumentation chain degrades to no-ops.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds). Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Merge folds src into r: counters and histograms add, gauges take src's
// value (last merge wins). The Fig 8 grid gives every cell its own registry
// and merges them serially in cell order, which keeps aggregate metrics
// bit-identical no matter how many workers ran the cells. Histograms merge
// by bucket only when the bounds match; mismatched bounds fold into the
// destination's buckets via per-bucket re-observation at the bound value.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for name, c := range src.counts {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, h := range src.hists {
		dst := r.Histogram(name, h.bounds)
		if histBoundsEqual(dst.bounds, h.bounds) {
			for i := range h.counts {
				dst.counts[i].Add(h.counts[i].Load())
			}
			dst.inf.Add(h.inf.Load())
			dst.count.Add(h.count.Load())
			for {
				old := dst.sum.Load()
				merged := math.Float64frombits(old) + h.Sum()
				if dst.sum.CompareAndSwap(old, math.Float64bits(merged)) {
					break
				}
			}
			continue
		}
		for i := range h.counts {
			n := h.counts[i].Load()
			if n == 0 {
				continue
			}
			if j := sort.SearchFloat64s(dst.bounds, h.bounds[i]); j < len(dst.bounds) {
				dst.counts[j].Add(n)
			} else {
				dst.inf.Add(n)
			}
		}
		dst.inf.Add(h.inf.Load())
		dst.count.Add(h.count.Load())
		for {
			old := dst.sum.Load()
			merged := math.Float64frombits(old) + h.Sum()
			if dst.sum.CompareAndSwap(old, math.Float64bits(merged)) {
				break
			}
		}
	}
}

func histBoundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, names sorted for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counts := sortedKeys(r.counts)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	r.mu.Unlock()

	for _, name := range counts {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.Counter(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.Gauge(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range hists {
		h := r.Histogram(name, nil)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		bounds, cum := h.Buckets()
		for i, b := range bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %v\n%s_count %d\n",
			name, h.Count(), name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot is a JSON-friendly dump of a registry, embedded by the
// rtad-experiments report when telemetry is enabled.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's state: bounds with cumulative
// counts, plus sum and count.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      int64     `json:"count"`
}

// Snapshot captures the registry's current state (nil on a nil registry).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counts := sortedKeys(r.counts)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	r.mu.Unlock()

	s := &Snapshot{}
	if len(counts) > 0 {
		s.Counters = map[string]int64{}
		for _, name := range counts {
			s.Counters[name] = r.Counter(name).Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = map[string]int64{}
		for _, name := range gauges {
			s.Gauges[name] = r.Gauge(name).Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = map[string]HistogramSnapshot{}
		for _, name := range hists {
			h := r.Histogram(name, nil)
			bounds, cum := h.Buckets()
			s.Histograms[name] = HistogramSnapshot{
				Bounds: bounds, Cumulative: cum, Sum: h.Sum(), Count: h.Count(),
			}
		}
	}
	return s
}
