package ptm

import (
	"rtad/internal/cpu"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// PortConfig sizes the PTM output stage: the formatter policy that holds
// bytes back until enough have accumulated. That hold-back is the dominant
// component of RTAD's step-(1) latency in Fig 7 — "PTM does not send the
// packets until enough packets are buffered in the FIFO inside the ARM
// CPU". The port's width, queue and clock are the prototype's constants
// (bytesPerCycle, queueBytes, sim.FabricClock).
type PortConfig struct {
	// DrainThreshold is the byte occupancy at which the formatter releases
	// the buffered stream. Smaller values cut trace-visibility latency at
	// the cost of more port transactions.
	DrainThreshold int
	// Telemetry, when non-nil, records release bursts as spans on the
	// fabric/ptm track and keeps byte/release counters. Observation-only:
	// timing and output are bit-identical either way.
	Telemetry *obs.Telemetry
}

// DefaultDrainThreshold gives the ~2–3 µs trace-visibility latency of Fig
// 7's RTAD step (1) at typical branch rates.
const DefaultDrainThreshold = 64

// The prototype's port: the TPIU-facing interface moves bytesPerCycle
// bytes each 125 MHz fabric cycle (a 32-bit port), and its departure
// schedule may run queueBytes ahead of the producer before the CPU stalls
// (sustained-bandwidth backpressure).
const (
	bytesPerCycle = 4
	queueBytes    = 512
)

// Port models the PTM output stage. Bytes pushed at simulated times are
// counted until the drain threshold is reached, then released onto the
// port bytesPerCycle at a time, one beat per fabric cycle. The port keeps
// only its occupancy and departure horizon, and describes each release as
// an arithmetic-progression schedule (Release); no byte is stored.
type Port struct {
	drainThreshold int
	occ            int      // bytes held back
	freeAt         sim.Time // next fabric instant the port can emit a beat

	pushed    int64 // total bytes accepted into the hold-back buffer
	maxOccupy int

	obsBytes    *obs.Counter
	obsReleases *obs.Counter
	obsStallPS  *obs.Counter
	track       *obs.Track
}

// Release describes one drain burst's departure schedule: Bytes leave in
// groups of Group per beat, beats Step apart, starting at Start. Byte j of
// the release therefore departs at Start + (j/Group)*Step. A zero Release
// (Bytes == 0) means the push did not cross the drain threshold.
type Release struct {
	Start sim.Time
	Bytes int
	Group int
	Step  sim.Time
}

// horizon is how far the departure schedule may run ahead of a push before
// the producer stalls: queueBytes worth of beats.
var horizon = sim.FabricClock.Duration(queueBytes / bytesPerCycle)

// NewPort returns a port with cfg applied (a zero DrainThreshold takes
// DefaultDrainThreshold).
func NewPort(cfg PortConfig) *Port {
	p := &Port{drainThreshold: cfg.DrainThreshold}
	if p.drainThreshold <= 0 {
		p.drainThreshold = DefaultDrainThreshold
	}
	if tel := cfg.Telemetry; tel != nil {
		p.obsBytes = tel.Counter("rtad_ptm_bytes_total")
		p.obsReleases = tel.Counter("rtad_ptm_releases_total")
		p.obsStallPS = tel.Counter("rtad_ptm_backpressure_ps_total")
		p.track = tel.Track("fabric", "ptm")
	}
	return p
}

// StageName identifies the port in pipeline stage listings.
func (p *Port) StageName() string { return "ptm" }

// QueueStats reports the hold-back buffer as a uniform queue snapshot. The
// port is lossless by construction — its only pressure-relief mechanism is
// the backpressure stall PushCounted returns to the CPU, never a drop — so
// Overflows and Dropped are 0 by design (not merely unreported), and
// Accepted counts every byte admitted to the hold-back buffer.
func (p *Port) QueueStats() sim.QueueStats {
	return sim.QueueStats{Len: p.occ, MaxDepth: p.maxOccupy, Accepted: p.pushed}
}

// schedule records one drain burst of n bytes requested at time at: it
// advances the release counter and the departure horizon and emits the
// telemetry span, returning the burst's arithmetic-progression schedule.
func (p *Port) schedule(at sim.Time, n int) Release {
	p.obsReleases.Inc()
	start := sim.FabricClock.NextEdge(at)
	if start < p.freeAt {
		start = p.freeAt
	}
	step := sim.FabricClock.Period()
	beats := (n + bytesPerCycle - 1) / bytesPerCycle
	end := start + sim.Time(beats)*step
	if p.track != nil {
		p.track.Span("release", int64(start), int64(end),
			map[string]any{"bytes": n})
	}
	p.freeAt = end
	return Release{Start: start, Bytes: n, Group: bytesPerCycle, Step: step}
}

// PushCounted accounts for n bytes produced at time at. The returned
// Release carries the drain burst's departure schedule (Bytes == 0 when
// the push did not cross the threshold). The returned stall is how long
// (in simulated time) the producer must wait because the port's departure
// schedule has run more than queueBytes ahead — the only backpressure path
// to the CPU.
func (p *Port) PushCounted(at sim.Time, n int) (Release, sim.Time) {
	p.occ += n
	p.pushed += int64(n)
	p.obsBytes.Add(int64(n))
	if p.occ > p.maxOccupy {
		p.maxOccupy = p.occ
	}
	var rel Release
	if p.occ >= p.drainThreshold {
		rel = p.schedule(at, p.occ)
		p.occ = 0
	}
	if lag := p.freeAt - at - horizon; lag > 0 {
		p.obsStallPS.Add(int64(lag))
		return rel, lag
	}
	return rel, 0
}

// FlushCounted releases any held-back bytes regardless of the threshold
// (trace disable, or the driver forcing visibility). Bytes == 0 in the
// returned Release means nothing was held back.
func (p *Port) FlushCounted(at sim.Time) Release {
	var rel Release
	if p.occ > 0 {
		rel = p.schedule(at, p.occ)
		p.occ = 0
	}
	return rel
}

// syncStallCycles is the CPU-side cost of generating a synchronisation
// packet pair: the PTM snapshots architectural state for the i-sync, which
// holds retirement for a couple of cycles. This — not the data path — is
// why merely enabling the PTM interface shows a (negligible) overhead in
// Fig 6.
const syncStallCycles = 2

// OverheadSink wires Encoder and Port into a cpu.Sink for the Fig 6
// overhead study: every retired branch is encoded and pushed, and the
// returned stall is the CPU-cycle cost of trace collection. Only the
// stall matters there, so both run in their counted forms and no trace
// byte is kept.
type OverheadSink struct {
	enc       *Encoder
	port      *Port
	marks     []PacketMark // recycled per-event marks (zero-alloc contract)
	lastSyncs int64
}

// NewOverheadSink builds the standard RTAD collection path: broadcast
// encoder plus default port.
func NewOverheadSink() *OverheadSink {
	return &OverheadSink{
		enc:  NewEncoder(Config{BranchBroadcast: true}),
		port: NewPort(PortConfig{}),
	}
}

// BranchRetired implements cpu.Sink.
func (s *OverheadSink) BranchRetired(ev cpu.BranchEvent) int64 {
	at := sim.CPUClock.Duration(ev.Cycle)
	var n int
	s.marks, n = s.enc.EncodeCounted(s.marks[:0], ev)
	var stall int64
	if syncs := s.enc.Syncs(); syncs != s.lastSyncs {
		s.lastSyncs = syncs
		stall += syncStallCycles
	}
	if n > 0 {
		if _, lag := s.port.PushCounted(at, n); lag > 0 {
			stall += sim.CPUClock.CyclesCeil(lag)
		}
	}
	return stall
}
