package core

import (
	"fmt"

	"rtad/internal/attack"
	"rtad/internal/cpu"
	"rtad/internal/mcm"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// Session is a streaming detection run: one victim CPU driving one or more
// model pipelines, advanced incrementally. Where Detect executes a whole
// experiment to completion, stepping lets the caller interleave execution
// with observation — run a few hundred thousand instructions, consume the
// judgments produced so far, arm an attack mid-run, inspect stage queues,
// repeat — while producing *bit-identical* event streams to a whole run
// (the CPU, trace chain and MCM models are untouched; slicing only changes
// who calls them and when).
//
// Each lane's judgments complete in time order, so a session hands them
// over in the order its pipeline made them, and keeps only a running
// tally of each lane for Summary. A session shares nothing mutable with
// other sessions: a trained Deployment is read-only during inference, so
// any number of sessions may run concurrently over one deployment (see
// Fleet). A session itself is not goroutine-safe — one timeline, one
// goroutine.
type Session struct {
	// now is the ready time of the latest delivered judgment.
	now sim.Time
	// Exactly one front-end drives the sink chain: cpu executes the victim
	// program (Step), front replays a raw PTM byte stream (FeedTrace).
	cpu   *cpu.CPU
	front *traceFront
	// head is the chain's first sink, which every retired branch reaches
	// in one call: lane 0's pipeline, or a fanSink over both lanes for a
	// dual session, until Inject wraps it in the attack injector. The CPU
	// holds it as its sink; FeedTrace calls it directly.
	head  cpu.Sink
	lanes []*lane
	// pool is the legitimate-event reservoir Inject draws from (the lone
	// deployment's pool, or the LSTM's for dual sessions).
	pool *attack.Pool
	inj  *attack.Injector
	// shared is the engine token multiplexing the lanes' MCMs on one
	// ML-MIAOW (nil for single-lane sessions).
	shared  *mcm.SharedEngine
	stepped int64
	drained bool
	err     error

	// Telemetry (all nil when the session is un-instrumented). Victim-CPU
	// progress gauges are sampled at Step/Drain boundaries — they converge
	// to the same final values however the run is sliced — while trace
	// events are recorded only where sim times are produced, so the trace
	// bytes are invariant to slicing.
	tel         *obs.Telemetry
	obsEvents   *obs.Counter
	obsNow      *obs.Gauge
	obsCycles   *obs.Gauge
	obsInstret  *obs.Gauge
	obsStall    *obs.Gauge
	obsInstrCyc *obs.Gauge
	attackTrack *obs.Track
	attackNoted bool
}

// lane is one model's view of the shared victim: its pipeline, the
// judgments delivered to — but not yet consumed by — the caller, and the
// tally of everything delivered so far.
type lane struct {
	dep     *Deployment
	pipe    *Pipeline
	pending []Judged
	tally   tally
}

// tally is a lane's running detection summary, folded in judgment by
// judgment as deliver hands them over, so LaneSummary needs no history.
type tally struct {
	judged int
	// first is the first judgment completed by a branch at or after the
	// injection; latN > 0 once it is set.
	first    Judged
	latSum   sim.Time
	latN     int64
	irq      sim.Time
	detected bool
}

// add folds one delivered judgment into the tally. Before the attack fires
// the injection time is unknown, but nothing delivered then counts: its
// vector was completed by a branch that retired before the trigger branch,
// so it precedes the injection.
func (t *tally) add(j *Judged, fired bool, inject sim.Time) {
	t.judged++
	if !fired || j.FinalRetire < inject {
		return
	}
	if t.latN == 0 {
		t.first = *j
	}
	t.latSum += j.JudgmentLatency()
	t.latN++
	if j.Rec.Judgment.Anomaly {
		t.detected = true
		if t.irq == 0 {
			t.irq = j.Rec.IRQAt
		}
	}
}

// fanSink is a dual session's head: it hands each retired branch to the
// ELM lane's pipeline, then to the LSTM lane's, and stalls the CPU by the
// slower lane's backpressure.
type fanSink struct {
	elm, lstm *Pipeline
}

func (f *fanSink) BranchRetired(ev cpu.BranchEvent) int64 {
	return max(f.elm.BranchRetired(ev), f.lstm.BranchRetired(ev))
}

// observe attaches the telemetry bundle to the session-level pieces
// (judgment delivery and victim-CPU gauges). Safe with a nil bundle.
func (s *Session) observe(tel *obs.Telemetry) {
	s.tel = tel
	s.obsEvents = tel.Counter("rtad_sim_events_total")
	s.obsNow = tel.Gauge("rtad_sim_now_ps")
	s.obsCycles = tel.Gauge("rtad_cpu_cycles")
	s.obsInstret = tel.Gauge("rtad_cpu_instret")
	s.obsStall = tel.Gauge("rtad_cpu_stall_cycles")
	s.obsInstrCyc = tel.Gauge("rtad_cpu_instrumentation_cycles")
	s.attackTrack = tel.Track("cpu", "attack")
}

// sample refreshes the progress gauges. No trace events are emitted here —
// sampling frequency follows the caller's Step slicing, which must not
// change the trace bytes.
func (s *Session) sample() {
	if s.tel == nil {
		return
	}
	if s.cpu != nil {
		s.obsCycles.Set(s.cpu.Cycles())
		s.obsInstret.Set(s.cpu.Instret())
		s.obsStall.Set(s.cpu.StallCycles())
		s.obsInstrCyc.Set(s.cpu.InstrumentationCycles())
	} else {
		s.obsCycles.Set(s.front.cycle)
	}
	for _, ln := range s.lanes {
		tel := ln.pipe.tel
		if tel == nil {
			continue
		}
		for _, st := range ln.pipe.Stages() {
			qs := st.QueueStats()
			name := "rtad_stage_" + st.StageName()
			tel.Gauge(name + "_len").Set(int64(qs.Len))
			tel.Gauge(name + "_max_depth").Set(int64(qs.MaxDepth))
		}
	}
}

// Inject arms the attack. Called before the first Step it reproduces the
// batch experiments exactly; called mid-run it models an attacker striking
// partway through the monitored window (TriggerBranch then counts victim
// taken transfers from the arming point, and 0 fires on the very next one).
// BurstLen must be positive — the instruction budget isn't known here, so
// no defaulting happens; AttackSpec.Resolve applies the classic defaults.
func (s *Session) Inject(spec AttackSpec) error {
	if s.inj != nil {
		return fmt.Errorf("core: session already has an armed attack")
	}
	if s.drained {
		return fmt.Errorf("core: session already drained")
	}
	inj, err := attack.New(attack.Config{
		TriggerBranch: spec.TriggerBranch,
		BurstLen:      spec.BurstLen,
		Pool:          s.pool,
		// Default: independently sampled legitimate events — the paper's
		// "randomly inserting legitimate branch data in normal traces".
		// Mimicry switches to contiguous segment replay.
		Segment: spec.Mimicry,
		Seed:    spec.Seed,
	}, s.head)
	if err != nil {
		return err
	}
	s.head, s.inj = inj, inj
	if s.cpu != nil {
		s.cpu.SetSink(inj)
	}
	if s.attackTrack != nil {
		s.attackTrack.Instant("attack_armed",
			int64(sim.CPUClock.Duration(s.frontCycles())),
			map[string]any{"trigger_branch": spec.TriggerBranch, "burst_len": spec.BurstLen})
	}
	return nil
}

// Step runs the victim for up to maxInstr further instructions (stopping
// early at HALT), then delivers every judgment completed so far. It returns
// the number of instructions retired during this call.
func (s *Session) Step(maxInstr int64) (int64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.drained {
		return 0, fmt.Errorf("core: session already drained")
	}
	if s.cpu == nil {
		return 0, fmt.Errorf("core: session has a trace-input front-end (feed it with FeedTrace)")
	}
	n, err := s.cpu.Run(maxInstr)
	s.stepped += n
	if err != nil {
		s.err = err
		return n, err
	}
	s.deliver()
	s.sample()
	return n, s.err
}

// Drain ends the run: residual trace data is flushed through every lane at
// the victim's final cycle (matching the batch paths' end-of-window flush)
// and the last judgments are delivered. Idempotent.
func (s *Session) Drain() error {
	if s.drained || s.err != nil {
		return s.err
	}
	end := sim.CPUClock.Duration(s.frontCycles())
	for _, ln := range s.lanes {
		ln.pipe.Flush(end)
	}
	s.deliver()
	// The injection instant is recorded here — not at the Step that first
	// notices the fired attack — so its position in the event stream does
	// not depend on how the run was sliced. Its timestamp is the true
	// injection time regardless.
	if s.attackTrack != nil && s.AttackFired() && !s.attackNoted {
		s.attackNoted = true
		s.attackTrack.Instant("attack_injected", int64(s.InjectTime()), nil)
	}
	s.sample()
	s.drained = true
	return s.err
}

// deliver moves each lane's new judgments onto its pending queue and into
// its tally. Within a lane, Done strictly increases — every vector starts
// on its MCM at or after the previous one's Done, the dual session's
// shared engine included — so the pipeline's push order is time order.
// rtad_sim_events_total counts delivered judgments and rtad_sim_now_ps
// follows Now.
func (s *Session) deliver() {
	fired, inject := s.AttackFired(), s.InjectTime()
	var n int
	for _, ln := range s.lanes {
		start := len(ln.pending)
		ln.pending = ln.pipe.TakeJudged(ln.pending)
		for i := start; i < len(ln.pending); i++ {
			ln.tally.add(&ln.pending[i], fired, inject)
		}
		if k := len(ln.pending); k > start {
			n += k - start
			s.now = max(s.now, ln.pending[k-1].Rec.Done)
		}
		if err := ln.pipe.Err(); err != nil && s.err == nil {
			s.err = err
		}
	}
	if n > 0 {
		s.obsEvents.Add(int64(n))
		s.obsNow.Set(int64(s.now))
	}
}

// Results returns and clears lane 0's delivered-but-unconsumed judgments —
// the streaming read for single-model sessions.
func (s *Session) Results() []Judged { return s.LaneResults(0) }

// LaneResults returns and clears lane i's delivered judgments.
func (s *Session) LaneResults(i int) []Judged {
	out := s.lanes[i].pending
	s.lanes[i].pending = nil
	return out
}

// Summary builds lane 0's DetectionResult (requires a drained session with
// a fired attack). It is unaffected by streaming consumption via Results.
func (s *Session) Summary() (*DetectionResult, error) { return s.LaneSummary(0) }

// LaneSummary builds lane i's DetectionResult.
func (s *Session) LaneSummary(i int) (*DetectionResult, error) {
	if !s.drained {
		return nil, fmt.Errorf("core: session not drained")
	}
	if s.inj == nil || !s.inj.Fired() {
		return nil, fmt.Errorf("core: attack never fired")
	}
	ln := s.lanes[i]
	if ln.tally.latN == 0 {
		return nil, fmt.Errorf("no post-injection vector judged on %s", ln.dep.Profile.Name)
	}
	first := ln.tally.first
	stats := ln.pipe.MCMStats()
	return &DetectionResult{
		Benchmark:   ln.dep.Profile.Name,
		Kind:        ln.dep.Kind,
		CUs:         ln.pipe.cfg.CUs,
		InjectTime:  s.InjectTime(),
		First:       &first,
		Latency:     first.JudgmentLatency(),
		MeanLatency: ln.tally.latSum / sim.Time(ln.tally.latN),
		IRQTime:     ln.tally.irq,
		Detected:    ln.tally.detected,
		Judged:      ln.tally.judged,
		Dropped:     stats.Dropped,
		MaxOcc:      stats.MaxOccupancy,
		Stages:      SnapshotStages(ln.pipe.Stages()),
	}, nil
}

// Stages snapshots lane 0's trace-delivery chain.
func (s *Session) Stages() []StageSnapshot { return s.LaneStages(0) }

// LaneStages snapshots lane i's trace-delivery chain.
func (s *Session) LaneStages(i int) []StageSnapshot {
	return SnapshotStages(s.lanes[i].pipe.Stages())
}

// Now is the ready time of the latest delivered judgment (which can run
// past the victim's last cycle while the inference tail completes).
func (s *Session) Now() sim.Time { return s.now }

// Instret is the victim's retired-instruction count (0 for trace-input
// sessions — the stream carries branches, not every instruction).
func (s *Session) Instret() int64 {
	if s.cpu == nil {
		return 0
	}
	return s.cpu.Instret()
}

// MCMStats exposes lane 0's module counters (drops, occupancy) — the
// pipeline health figures a summary needs even when no attack was armed
// (where Summary, which reconstructs the detection experiment, errors).
func (s *Session) MCMStats() mcm.Stats { return s.LaneMCMStats(0) }

// LaneMCMStats exposes lane i's module counters.
func (s *Session) LaneMCMStats(i int) mcm.Stats { return s.lanes[i].pipe.MCMStats() }

// AttackFired reports whether an armed attack has triggered.
func (s *Session) AttackFired() bool { return s.inj != nil && s.inj.Fired() }

// InjectTime is when the first burst event hit the stream (zero before the
// attack fires).
func (s *Session) InjectTime() sim.Time {
	if !s.AttackFired() {
		return 0
	}
	return sim.CPUClock.Duration(s.inj.InjectedAtCycle)
}

// SharedBusyAt reports the multiplexed engine's busy horizon for dual
// sessions (zero for single-lane sessions).
func (s *Session) SharedBusyAt() sim.Time {
	if s.shared == nil {
		return 0
	}
	return s.shared.FreeAt()
}
