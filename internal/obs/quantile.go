package obs

import (
	"bufio"
	"math"
	"strconv"
	"strings"
)

// Quantile estimates the q-th quantile (0 <= q <= 1) of the observations
// by linear interpolation inside the bucket the rank falls into — the
// same estimator Prometheus's histogram_quantile applies, so an
// SLO snapshot computed here matches what a dashboard over the scraped
// /metrics would show. Returns NaN when the histogram is empty (or nil).
//
// Ranks that fall in the +Inf overflow bucket clamp to the largest finite
// bound: the histogram cannot see past its buckets, and a clamped p99 is
// still the right alerting signal ("at least this bad").
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	bounds, cum := h.Buckets()
	return quantileFromBuckets(bounds, cum, h.Count(), q)
}

// Quantile estimates the q-th quantile from a captured snapshot, with the
// same semantics as Histogram.Quantile. This is what consumers of scraped
// histograms (loadgen's -metrics-addr pass) use.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantileFromBuckets(s.Bounds, s.Cumulative, s.Count, q)
}

// quantileFromBuckets is the shared estimator over Prometheus-style
// cumulative buckets (bounds exclusive of +Inf; total includes the +Inf
// overflow).
func quantileFromBuckets(bounds []float64, cum []int64, total int64, q float64) float64 {
	if total <= 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, b := range bounds {
		if float64(cum[i]) < rank {
			continue
		}
		// The rank lands in bucket i: interpolate between the bucket's
		// lower and upper bound by the rank's position inside it.
		var prev int64
		lower := 0.0
		if i > 0 {
			prev = cum[i-1]
			lower = bounds[i-1]
		} else if b <= 0 {
			// All-negative-or-zero first bucket: no meaningful lower
			// edge, report the bound itself.
			return b
		}
		n := cum[i] - prev
		if n <= 0 {
			return b
		}
		return lower + (b-lower)*(rank-float64(prev))/float64(n)
	}
	// Rank fell in the +Inf overflow bucket: clamp to the largest finite
	// bound; with no finite buckets at all there is nothing to report.
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// ParsePrometheusHistogram reconstructs one named histogram from
// Prometheus text exposition (the /metrics payload): the _bucket lines
// become bounds and cumulative counts, _sum and _count fill the rest.
// ok is false when the metric is absent. Only the single-histogram shape
// WritePrometheus emits is understood — labels other than le are not.
func ParsePrometheusHistogram(text, name string) (snap HistogramSnapshot, ok bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	bucketPrefix := name + `_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, bucketPrefix):
			rest := line[len(bucketPrefix):]
			end := strings.Index(rest, `"`)
			if end < 0 {
				continue
			}
			le, valStr := rest[:end], strings.TrimSpace(strings.TrimPrefix(rest[end:], `"}`))
			n, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				continue
			}
			if le == "+Inf" {
				ok = true
				continue // the overflow count is Count minus the last bound's
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			snap.Bounds = append(snap.Bounds, b)
			snap.Cumulative = append(snap.Cumulative, n)
			ok = true
		case strings.HasPrefix(line, name+"_sum "):
			if v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+"_sum "), 64); err == nil {
				snap.Sum = v
				ok = true
			}
		case strings.HasPrefix(line, name+"_count "):
			if v, err := strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64); err == nil {
				snap.Count = v
				ok = true
			}
		}
	}
	return snap, ok
}
