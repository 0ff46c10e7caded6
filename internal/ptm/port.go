package ptm

import (
	"rtad/internal/cpu"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// TimedByte is one trace byte with the simulated instant it becomes visible
// on the TPIU-facing port.
type TimedByte struct {
	At sim.Time
	B  byte
}

// PortConfig sizes the PTM output stage: the CPU-internal trace FIFO and
// the formatter policy that holds bytes back until enough have accumulated.
// That hold-back is the dominant component of RTAD's step-(1) latency in
// Fig 7 — "PTM does not send the packets until enough packets are buffered
// in the FIFO inside the ARM CPU".
type PortConfig struct {
	// DrainThreshold is the byte occupancy at which the formatter releases
	// the buffered stream. Smaller values cut trace-visibility latency at
	// the cost of more port transactions.
	DrainThreshold int
	// BytesPerCycle is the port width per fabric cycle: the TPIU-facing
	// interface moves this many bytes each 125 MHz cycle (4 = 32-bit port).
	BytesPerCycle int
	// QueueBytes bounds how far the port's departure schedule may run
	// ahead of the producer before the CPU stalls (sustained-bandwidth
	// backpressure). Zero uses the default.
	QueueBytes int
	// Clock is the fabric clock driving the port (defaults to sim.FabricClock).
	Clock *sim.Clock
	// Telemetry, when non-nil, records release bursts as spans on the
	// fabric/ptm track and keeps byte/release counters. Observation-only:
	// timing and output are bit-identical either way.
	Telemetry *obs.Telemetry
}

// Defaults matching the prototype configuration.
const (
	// DefaultDrainThreshold gives the ~2–3 µs trace-visibility latency of
	// Fig 7's RTAD step (1) at typical branch rates.
	DefaultDrainThreshold = 64
	DefaultBytesPerCycle  = 4
	DefaultQueueBytes     = 512
)

func (c PortConfig) withDefaults() PortConfig {
	if c.DrainThreshold <= 0 {
		c.DrainThreshold = DefaultDrainThreshold
	}
	if c.BytesPerCycle <= 0 {
		c.BytesPerCycle = DefaultBytesPerCycle
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = DefaultQueueBytes
	}
	if c.Clock == nil {
		c.Clock = sim.FabricClock
	}
	return c
}

// Port models the PTM output stage. Bytes pushed at simulated times are
// buffered until the drain threshold is reached, then released onto the
// port at the configured width, one beat per fabric cycle. Released bytes
// appear on the Out slice with their departure times.
//
// The port runs in one of two modes, chosen by which Push family the
// caller uses. The staged mode (Push/Flush/TakeInto) materialises every
// released byte as a TimedByte. The counted fast-path mode
// (PushCounted/FlushCounted) keeps only occupancy and the departure
// horizon, and describes each release as an arithmetic-progression
// schedule (Release) instead — same timing algebra, no per-byte values.
// One port instance must stay in one mode.
type Port struct {
	cfg    PortConfig
	buf    []byte
	occ    int      // counted-mode occupancy (staged mode uses len(buf))
	freeAt sim.Time // next fabric instant the port can emit a beat
	// Out accumulates released bytes; callers consume it with TakeInto.
	out []TimedByte

	releases  int64
	pushed    int64 // total bytes accepted into the hold-back buffer
	maxOccupy int

	obsBytes    *obs.Counter
	obsReleases *obs.Counter
	obsStallPS  *obs.Counter
	track       *obs.Track
}

// Release describes one drain burst's departure schedule on the fused fast
// path: Bytes leave in groups of Group per beat, beats Step apart, starting
// at Start. Byte j of the release therefore departs at Start + (j/Group)*Step
// — exactly the arithmetic progression the staged path materialises as
// TimedBytes. A zero Release (Bytes == 0) means the push did not cross the
// drain threshold.
type Release struct {
	Start sim.Time
	Bytes int
	Group int
	Step  sim.Time
}

// ByteAt is the departure instant of the release's j-th byte (0-based).
func (r Release) ByteAt(j int) sim.Time { return r.Start + sim.Time(j/r.Group)*r.Step }

// NewPort returns a port with cfg applied (zero fields take defaults).
func NewPort(cfg PortConfig) *Port {
	p := &Port{cfg: cfg.withDefaults()}
	if tel := p.cfg.Telemetry; tel != nil {
		p.obsBytes = tel.Counter("rtad_ptm_bytes_total")
		p.obsReleases = tel.Counter("rtad_ptm_releases_total")
		p.obsStallPS = tel.Counter("rtad_ptm_backpressure_ps_total")
		p.track = tel.Track("fabric", "ptm")
	}
	return p
}

// Occupancy returns bytes currently held back by the formatter (either
// materialised or counted, depending on mode).
func (p *Port) Occupancy() int { return len(p.buf) + p.occ }

// StageName identifies the port in pipeline stage listings.
func (p *Port) StageName() string { return "ptm" }

// QueueStats reports the hold-back buffer as a uniform queue snapshot. The
// port is lossless by construction — its only pressure-relief mechanism is
// the backpressure stall Push returns to the CPU, never a drop — so
// Overflows and Dropped are 0 by design (not merely unreported), and
// Accepted counts every byte admitted to the hold-back buffer.
func (p *Port) QueueStats() sim.QueueStats {
	return sim.QueueStats{Len: len(p.buf) + p.occ, MaxDepth: p.maxOccupy, Accepted: p.pushed}
}

// MaxOccupancy returns the high-water mark of the hold-back buffer.
func (p *Port) MaxOccupancy() int { return p.maxOccupy }

// Releases returns how many drain bursts the formatter has performed.
func (p *Port) Releases() int64 { return p.releases }

// Push buffers data produced at time at and returns how long (in simulated
// time) the producer must stall because the port's departure schedule has
// run more than QueueBytes ahead — the only backpressure path to the CPU.
func (p *Port) Push(at sim.Time, data []byte) sim.Time {
	p.buf = append(p.buf, data...)
	p.pushed += int64(len(data))
	p.obsBytes.Add(int64(len(data)))
	if len(p.buf) > p.maxOccupy {
		p.maxOccupy = len(p.buf)
	}
	if len(p.buf) >= p.cfg.DrainThreshold {
		p.release(at)
	}
	// Sustained-bandwidth backpressure: if the port is scheduled beyond
	// the queue horizon, the producer waits for the excess.
	horizon := p.cfg.Clock.Duration(int64(p.cfg.QueueBytes / p.cfg.BytesPerCycle))
	if lag := p.freeAt - at - horizon; lag > 0 {
		p.obsStallPS.Add(int64(lag))
		return lag
	}
	return 0
}

// Flush releases any held-back bytes regardless of the threshold (trace
// disable, or the driver forcing visibility).
func (p *Port) Flush(at sim.Time) {
	if len(p.buf) > 0 {
		p.release(at)
	}
}

// schedule records one drain burst of n bytes requested at time at: it
// advances the release counters and the departure horizon and emits the
// telemetry span, returning the burst's arithmetic-progression schedule.
// Shared by the staged and counted modes so both produce identical timing,
// counters, and spans.
func (p *Port) schedule(at sim.Time, n int) Release {
	p.releases++
	p.obsReleases.Inc()
	start := p.cfg.Clock.NextEdge(at)
	if start < p.freeAt {
		start = p.freeAt
	}
	step := p.cfg.Clock.Period()
	beats := (n + p.cfg.BytesPerCycle - 1) / p.cfg.BytesPerCycle
	end := start + sim.Time(beats)*step
	if p.track != nil {
		p.track.Span("release", int64(start), int64(end),
			map[string]any{"bytes": n})
	}
	p.freeAt = end
	return Release{Start: start, Bytes: n, Group: p.cfg.BytesPerCycle, Step: step}
}

// release schedules every buffered byte onto the port (staged mode).
func (p *Port) release(at sim.Time) {
	r := p.schedule(at, len(p.buf))
	beat := r.Start
	for i := 0; i < len(p.buf); i += p.cfg.BytesPerCycle {
		end := i + p.cfg.BytesPerCycle
		if end > len(p.buf) {
			end = len(p.buf)
		}
		for _, b := range p.buf[i:end] {
			p.out = append(p.out, TimedByte{At: beat, B: b})
		}
		beat += r.Step
	}
	p.buf = p.buf[:0]
}

// PushCounted is the fused fast-path form of Push: it accounts for n bytes
// produced at time at without materialising them. The returned Release
// carries the drain burst's departure schedule (Bytes == 0 when the push
// did not cross the threshold); the returned stall is the same
// backpressure duration Push reports. Timing, counters, and spans are
// bit-identical to pushing the same bytes through Push.
func (p *Port) PushCounted(at sim.Time, n int) (Release, sim.Time) {
	p.occ += n
	p.pushed += int64(n)
	p.obsBytes.Add(int64(n))
	if p.occ > p.maxOccupy {
		p.maxOccupy = p.occ
	}
	var rel Release
	if p.occ >= p.cfg.DrainThreshold {
		rel = p.schedule(at, p.occ)
		p.occ = 0
	}
	horizon := p.cfg.Clock.Duration(int64(p.cfg.QueueBytes / p.cfg.BytesPerCycle))
	if lag := p.freeAt - at - horizon; lag > 0 {
		p.obsStallPS.Add(int64(lag))
		return rel, lag
	}
	return rel, 0
}

// FlushCounted is the fused fast-path form of Flush: any counted occupancy
// is released regardless of the threshold. Bytes == 0 in the returned
// Release means nothing was held back.
func (p *Port) FlushCounted(at sim.Time) Release {
	var rel Release
	if p.occ > 0 {
		rel = p.schedule(at, p.occ)
		p.occ = 0
	}
	return rel
}

// TakeInto appends the released-byte stream to dst, clears the internal
// queue (retaining its capacity for reuse), and returns the extended slice.
// A caller that recycles dst (`buf = port.TakeInto(buf[:0])`) drains the
// port with zero steady-state allocations.
func (p *Port) TakeInto(dst []TimedByte) []TimedByte {
	dst = append(dst, p.out...)
	p.out = p.out[:0]
	return dst
}

// syncStallCycles is the CPU-side cost of generating a synchronisation
// packet pair: the PTM snapshots architectural state for the i-sync, which
// holds retirement for a couple of cycles. This — not the data path — is
// why merely enabling the PTM interface shows a (negligible) overhead in
// Fig 6.
const syncStallCycles = 2

// OverheadSink wires Encoder and Port into a cpu.Sink for the Fig 6
// overhead study: every retired branch is encoded and pushed, and the
// returned stall is the CPU-cycle cost of trace collection.
type OverheadSink struct {
	Enc  *Encoder
	Port *Port

	cpuClock  *sim.Clock
	lastSyncs int64
	encBuf    []byte // recycled per-event encode buffer (zero-alloc contract)
}

// NewOverheadSink builds the standard RTAD collection path: broadcast
// encoder plus default port.
func NewOverheadSink(cfg Config, pcfg PortConfig) *OverheadSink {
	return &OverheadSink{
		Enc:      NewEncoder(cfg),
		Port:     NewPort(pcfg),
		cpuClock: sim.CPUClock,
	}
}

// BranchRetired implements cpu.Sink.
func (s *OverheadSink) BranchRetired(ev cpu.BranchEvent) int64 {
	at := s.cpuClock.Duration(ev.Cycle)
	s.encBuf = s.Enc.EncodeInto(s.encBuf[:0], ev)
	bytes := s.encBuf
	var stall int64
	if syncs := s.Enc.Syncs(); syncs != s.lastSyncs {
		s.lastSyncs = syncs
		stall += syncStallCycles
	}
	if len(bytes) > 0 {
		if lag := s.Port.Push(at, bytes); lag > 0 {
			stall += s.cpuClock.CyclesCeil(lag)
		}
	}
	return stall
}
