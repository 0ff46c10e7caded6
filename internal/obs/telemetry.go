package obs

// Telemetry bundles the two halves of the observability layer — the
// metrics registry and the sim-time tracer — into the single optional
// handle components accept. A nil *Telemetry (the default everywhere) is a
// complete no-op: every accessor returns a nil metric or track, and those
// are no-op receivers themselves.
type Telemetry struct {
	Reg    *Registry
	Tracer *Tracer

	// trackPrefix namespaces stage track names, so multi-lane deployments
	// (dual ELM+LSTM sessions) get distinct per-lane timelines while
	// sharing one registry and one trace file.
	trackPrefix string
	// metricSuffix namespaces registry metric names the same way (appended
	// to every Counter/Gauge/Histogram name, e.g. "_elm").
	metricSuffix string
}

// New returns a telemetry bundle with a fresh registry and tracer.
func New() *Telemetry {
	return &Telemetry{Reg: NewRegistry(), Tracer: NewTracer()}
}

// NewMetricsOnly returns a bundle that records metrics but no trace —
// the fleet configuration, where per-session traces would interleave.
func NewMetricsOnly() *Telemetry {
	return &Telemetry{Reg: NewRegistry()}
}

// Lane derives a per-lane handle: track names gain "name/" and metric names
// gain "_name", so a dual ELM+LSTM session reports two distinct judgment
// latency histograms over one registry. Returns nil on a nil receiver.
func (t *Telemetry) Lane(name string) *Telemetry {
	if t == nil {
		return nil
	}
	return &Telemetry{
		Reg: t.Reg, Tracer: t.Tracer,
		trackPrefix:  t.trackPrefix + name + "/",
		metricSuffix: t.metricSuffix + "_" + name,
	}
}

// Counter returns the named registry counter (nil on a nil bundle).
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.Reg.Counter(name + t.metricSuffix)
}

// Gauge returns the named registry gauge (nil on a nil bundle).
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return t.Reg.Gauge(name + t.metricSuffix)
}

// Histogram returns the named registry histogram (nil on a nil bundle).
func (t *Telemetry) Histogram(name string, bounds []float64) *Histogram {
	if t == nil {
		return nil
	}
	return t.Reg.Histogram(name+t.metricSuffix, bounds)
}

// Track returns the (domain, thread) trace track with the bundle's lane
// prefix applied (nil on a nil bundle or when no tracer is attached).
func (t *Telemetry) Track(domain, thread string) *Track {
	if t == nil || t.Tracer == nil {
		return nil
	}
	return t.Tracer.Track(domain, t.trackPrefix+thread)
}
