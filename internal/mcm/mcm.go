// Package mcm implements RTAD's ML Computing Module (§III-B, Fig 3): the
// block between IGM and ML-MIAOW. It contains the internal vector FIFO
// (whose overflow under branch pressure is the 471.omnetpp effect of Fig 8),
// the control FSM of Fig 3, the TX engine that writes input vectors and
// control registers into ML-MIAOW memory, the protocol converter that
// adapts IGM class IDs to the model's input alphabet, the RX engine that
// reads results back, and the interrupt manager that raises the host IRQ
// on an anomaly verdict. The FSM's WAIT_INPUT → READ_INPUT → WRITE_INPUT →
// WAIT_DONE → READ_RESULT phases are the steps of Push, which times each
// vector's whole pass in closed form, so the FSM's position is never
// stored.
package mcm

import (
	"fmt"

	"rtad/internal/igm"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// Engine abstracts the inference engine running on ML-MIAOW. It is the
// kernels.Backend contract: the cycle-accurate GPU engines, the native
// fixed-point backend and the calibrated-timing backend all satisfy it,
// and the MCM is agnostic to which one it drives — every backend returns
// bit-identical judgments and a cycle cost for the WAIT_DONE phase.
type Engine = kernels.Backend

// Config parameterises the module. The module runs on sim.FabricClock and
// ML-MIAOW on sim.GPUClock.
type Config struct {
	Engine Engine
	// Translate is the protocol converter: it maps an IGM class ID to the
	// model's class alphabet. Nil means identity. A negative result drops
	// the element (vector is skipped as malformed).
	Translate func(int32) int32
	// FIFODepth is the internal vector FIFO capacity.
	FIFODepth int
	// Shared, when non-nil, serialises this module's compute phase with
	// other MCM instances driving the same ML-MIAOW — the configuration
	// where several models are deployed "at the user's disposal" (§II) on
	// one MLPU. Pass the same *SharedEngine to every participating MCM.
	Shared *SharedEngine
	// Telemetry, when non-nil, records each vector's service as a span on
	// the fabric/mcm track (start -> judgment done), FIFO depth as a
	// counter series, and drop/anomaly counters. Observation-only.
	Telemetry *obs.Telemetry
}

// Microarchitectural constants in MCM fabric cycles. The ML-MIAOW base
// hardware exposes a register-style interface ("bus masters deliver
// data... ML-MIAOW stores the data in its internal memory"), so the TX
// engine issues one single-beat write per input word plus two
// control-register writes, and the RX engine one single-beat read per
// result word. Each access costs accessCycles: 2 cycles of address decode,
// 3 for the SRAM to accept it and one data beat. That reproduces the
// ~0.78 µs "successive write operations to the ML-MIAOW memory" of Fig 7
// for a 9–16 word vector.
const (
	DefaultFIFODepth = 8

	readInputCycles = 1 // FIFO pop into the TX engine
	ctrlWrites      = 2 // CU control registers + start command
	resultWords     = 3 // flag, margin, smoothed score
	irqCycles       = 2 // interrupt manager latch
	accessCycles    = 6 // one single-beat access to ML-MIAOW's SRAM
)

// accessesDone returns when n back-to-back single-beat accesses issued at t
// complete: the first waits for the next fabric edge and each takes
// accessCycles. No access waits for another: a vector's accesses fall
// between its start and Done, and the next vector, on this module or on
// any other sharing the engine, starts at or after that Done.
func accessesDone(t sim.Time, n int) sim.Time {
	return sim.FabricClock.NextEdge(t) + sim.FabricClock.Duration(int64(n)*accessCycles)
}

// TXTime is the TX engine's WRITE_INPUT time for an n-word vector: n input
// words plus the control registers, one single-beat write each.
func TXTime(n int) sim.Time { return accessesDone(0, n+ctrlWrites) }

// Record traces one input vector through the module.
type Record struct {
	Seq       int64 // IGM vector sequence number
	Arrived   sim.Time
	Started   sim.Time // READ_INPUT time (leaves the FIFO)
	Done      sim.Time // READ_RESULT complete; judgment available
	IRQAt     sim.Time // interrupt time (zero value if no anomaly)
	Judgment  kernels.Judgment
	GPUCycles int64
	// Pending marks a deferred record: the timeline above is final but the
	// Judgment (and IRQAt) will only be filled in by Settle/Complete. See
	// the deferred-judgment notes on Push.
	Pending bool
}

// Stats aggregates module activity.
type Stats struct {
	Accepted     int64
	Dropped      int64 // vectors lost to FIFO overflow
	Anomalies    int64
	MaxOccupancy int
	BusyTime     sim.Time // engine busy time (WRITE_INPUT..READ_RESULT)
}

// SharedEngine tracks the busy horizon of a compute engine multiplexed
// between several MCM front-ends.
type SharedEngine struct {
	freeAt sim.Time
}

// NewSharedEngine returns an idle shared-engine token.
func NewSharedEngine() *SharedEngine { return &SharedEngine{} }

// FreeAt reports when the engine next becomes idle.
func (s *SharedEngine) FreeAt() sim.Time { return s.freeAt }

// MCM is the module instance. Vectors are pushed in arrival order; the
// module computes each one's full timeline analytically (the pipeline is
// feed-forward, so no event scheduler is needed).
type MCM struct {
	cfg    Config
	freeAt sim.Time // engine pipeline free time
	// starts holds the service-start times of accepted-but-not-started
	// vectors, to compute FIFO occupancy at each arrival. Entries before
	// startsHd have already been observed in the past by a monotone query
	// and can never count again.
	starts      []sim.Time
	startsHd    int
	lastArrival sim.Time
	stats       Stats
	// winBuf is the protocol-conversion scratch window, reused across Push
	// calls; engines copy their input immediately, so it never escapes.
	winBuf []int32

	// Deferred-judgment state. fixed is the engine's FixedCoster view (nil
	// if unsupported, or if tracing is on — deferral would skip the per-span
	// anomaly annotations). pendArena holds the converted windows of every
	// deferred vector since the last Settle, back to back; pendWins is the
	// per-window view rebuilt over it at settle time.
	fixed     kernels.FixedCoster
	pendArena []int32
	pendWins  [][]int32

	obsAccepted  *obs.Counter
	obsDropped   *obs.Counter
	obsAnomalies *obs.Counter
	obsBusyPS    *obs.Counter
	obsOcc       *obs.Gauge
	track        *obs.Track
}

// New returns an MCM with cfg applied.
func New(cfg Config) (*MCM, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("mcm: no engine configured")
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = DefaultFIFODepth
	}
	m := &MCM{cfg: cfg}
	if tel := cfg.Telemetry; tel != nil {
		m.obsAccepted = tel.Counter("rtad_mcm_accepted_total")
		m.obsDropped = tel.Counter("rtad_mcm_dropped_total")
		m.obsAnomalies = tel.Counter("rtad_mcm_anomalies_total")
		m.obsBusyPS = tel.Counter("rtad_mcm_busy_ps_total")
		m.obsOcc = tel.Gauge("rtad_mcm_fifo_max_occupancy")
		// Per-backend label: the backend choice is constant for an MCM's
		// lifetime, so it is exposed as a labelled info gauge and stamped
		// once on the track rather than on every span.
		tel.Gauge(`rtad_mcm_backend_info{backend="` + cfg.Engine.Name() + `"}`).Set(1)
		m.track = tel.Track("fabric", "mcm")
		if m.track != nil {
			m.track.Instant("backend", 0, map[string]any{"backend": cfg.Engine.Name()})
		}
	}
	if m.track == nil {
		// Deferred judgment needs the per-vector span annotations off: the
		// infer span records the judgment at push time. Metrics-only and
		// untelemetered runs keep the fast path.
		m.fixed, _ = cfg.Engine.(kernels.FixedCoster)
	}
	return m, nil
}

// Stats returns the aggregate counters.
func (m *MCM) Stats() Stats { return m.stats }

// StageName identifies the MCM in pipeline stage listings.
func (m *MCM) StageName() string { return "mcm" }

// QueueStats reports the vector FIFO as a uniform queue snapshot: occupancy
// as of the last vector arrival (the FIFO timeline is computed analytically),
// the high-water mark, and vectors lost to overflow — the Fig 8 loss mode.
func (m *MCM) QueueStats() sim.QueueStats {
	return sim.QueueStats{
		Len:       m.occupancyAt(m.lastArrival),
		MaxDepth:  m.stats.MaxOccupancy,
		Overflows: m.stats.Dropped,
		Accepted:  m.stats.Accepted,
		Dropped:   m.stats.Dropped,
	}
}

// occupancyAt counts vectors still waiting in the FIFO at time t. starts is
// monotone non-decreasing (each service begins after the previous one ends)
// and queries arrive in time order (vector arrivals), so entries that have
// fallen behind t are pruned from the front once instead of rescanned on
// every arrival.
func (m *MCM) occupancyAt(t sim.Time) int {
	for m.startsHd < len(m.starts) && m.starts[m.startsHd] <= t {
		m.startsHd++
	}
	return len(m.starts) - m.startsHd
}

// Push offers one IGM vector to the module. It returns the vector's record
// and whether it was accepted; a false return means the FIFO was full and
// the vector was lost (counted in Stats.Dropped), the loss mode §IV-C
// describes for branch-heavy benchmarks.
func (m *MCM) Push(v igm.Vector) (Record, bool, error) {
	if len(v.Classes) != m.cfg.Engine.Window() {
		return Record{}, false, fmt.Errorf("mcm: vector length %d, engine window %d",
			len(v.Classes), m.cfg.Engine.Window())
	}
	// FIFO admission.
	m.lastArrival = v.At
	occ := m.occupancyAt(v.At)
	if occ >= m.cfg.FIFODepth {
		m.stats.Dropped++
		m.obsDropped.Inc()
		if m.track != nil {
			m.track.Instant("drop", int64(v.At), map[string]any{"seq": v.Seq})
		}
		return Record{}, false, nil
	}
	if occ+1 > m.stats.MaxOccupancy {
		m.stats.MaxOccupancy = occ + 1
	}
	if m.track != nil {
		m.track.Counter("fifo_depth", int64(v.At), float64(occ+1))
	}

	// Protocol conversion, into the reused scratch window.
	if cap(m.winBuf) < len(v.Classes) {
		m.winBuf = make([]int32, len(v.Classes))
	}
	window := m.winBuf[:len(v.Classes)]
	for i, c := range v.Classes {
		if m.cfg.Translate != nil {
			c = m.cfg.Translate(c)
		}
		if c < 0 {
			return Record{}, false, fmt.Errorf("mcm: class %d has no model mapping", v.Classes[i])
		}
		window[i] = c
	}

	// FSM timeline. WAIT_INPUT: the vector starts when the engine frees up
	// (including any other front-end sharing the compute engine).
	// READ_INPUT pops it from the FIFO.
	start := sim.FabricClock.NextEdge(v.At)
	if m.freeAt > start {
		start = m.freeAt
	}
	if m.cfg.Shared != nil && m.cfg.Shared.freeAt > start {
		start = m.cfg.Shared.freeAt
	}
	// WRITE_INPUT: the TX engine sends the input words plus the
	// control/start registers as single-beat writes through the protocol
	// converter.
	t := accessesDone(start+sim.FabricClock.Duration(readInputCycles), len(window)+ctrlWrites)

	// WAIT_DONE: the engine runs the model.
	if m.fixed != nil {
		if cycles, ok := m.fixed.FixedCost(); ok {
			return m.pushDeferred(v, window, start, t, cycles), true, nil
		}
	}
	j, gpuCycles, err := m.cfg.Engine.Infer(window)
	if err != nil {
		return Record{}, false, fmt.Errorf("mcm: inference: %w", err)
	}
	t += sim.GPUClock.Duration(gpuCycles)

	// READ_RESULT: the RX engine reads the result words back.
	t = accessesDone(t, resultWords)

	rec := Record{
		Seq: v.Seq, Arrived: v.At, Started: start, Done: t,
		Judgment: j, GPUCycles: gpuCycles,
	}
	if j.Anomaly {
		rec.IRQAt = t + sim.FabricClock.Duration(irqCycles)
		m.stats.Anomalies++
		m.obsAnomalies.Inc()
		if m.track != nil {
			m.track.Instant("irq", int64(rec.IRQAt), map[string]any{"seq": v.Seq})
		}
	}
	if m.track != nil {
		m.track.Span("infer", int64(start), int64(t), map[string]any{
			"seq": v.Seq, "gpu_cycles": gpuCycles, "anomaly": j.Anomaly,
		})
	}
	m.finish(start, t)
	return rec, true, nil
}

// pushDeferred completes a Push whose WAIT_DONE cost is known before the
// inference runs. Everything timing-dependent — FIFO admission of later
// vectors, Done, engine busy accounting — is already decided by the fixed
// cycle cost, so the arithmetic itself is postponed: the converted window
// is queued and the record returns with Pending set. Settle later judges
// all queued windows in one fused InferBatch call, and Complete threads
// each judgment back into its record. Per-session judgment streams are
// bit-identical to the synchronous path; only host-side call structure
// changes, which is what lets a serving batcher coalesce whole trace
// chunks instead of parking every vector.
func (m *MCM) pushDeferred(v igm.Vector, window []int32, start, t sim.Time, cycles int64) Record {
	t = accessesDone(t+sim.GPUClock.Duration(cycles), resultWords)
	m.pendArena = append(m.pendArena, window...)
	rec := Record{
		Seq: v.Seq, Arrived: v.At, Started: start, Done: t,
		GPUCycles: cycles, Pending: true,
	}
	m.finish(start, t)
	return rec
}

// finish applies the bookkeeping every accepted vector shares: aggregate
// stats, engine busy horizon, and the FIFO start log.
func (m *MCM) finish(start, t sim.Time) {
	m.stats.Accepted++
	m.obsAccepted.Inc()
	m.obsBusyPS.Add(int64(t - start))
	m.obsOcc.Max(int64(m.stats.MaxOccupancy))
	m.stats.BusyTime += t - start
	m.freeAt = t
	if m.cfg.Shared != nil {
		m.cfg.Shared.freeAt = t
	}
	m.starts = append(m.starts, start)
	// Garbage-collect pruned starts: they can no longer affect occupancy.
	if m.startsHd > 2*m.cfg.FIFODepth {
		n := copy(m.starts, m.starts[m.startsHd:])
		m.starts = m.starts[:n]
		m.startsHd = 0
	}
}

// Settle judges every deferred vector queued since the last Settle in one
// fused Engine.InferBatch call and returns the judgments in push order
// (nil if nothing is pending). The slice is the engine's batch scratch —
// consume it before the next engine call. Callers thread each judgment
// back into its pending Record via Complete.
func (m *MCM) Settle() ([]kernels.Judgment, error) {
	if len(m.pendArena) == 0 {
		return nil, nil
	}
	win := m.cfg.Engine.Window()
	n := len(m.pendArena) / win
	wins := m.pendWins[:0]
	for i := 0; i < n; i++ {
		wins = append(wins, m.pendArena[i*win:(i+1)*win:(i+1)*win])
	}
	m.pendWins = wins
	js, _, err := m.cfg.Engine.InferBatch(wins)
	m.pendArena = m.pendArena[:0]
	if err != nil {
		return nil, fmt.Errorf("mcm: settle: %w", err)
	}
	return js, nil
}

// Complete fills a deferred record with its settled judgment. Anomaly
// bookkeeping (IRQ time, counters) happens here so Stats end up identical
// to the synchronous path's.
func (m *MCM) Complete(rec *Record, j kernels.Judgment) {
	rec.Judgment = j
	rec.Pending = false
	if j.Anomaly {
		rec.IRQAt = rec.Done + sim.FabricClock.Duration(irqCycles)
		m.stats.Anomalies++
		m.obsAnomalies.Inc()
	}
}
