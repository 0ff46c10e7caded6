package core

import (
	"fmt"

	"rtad/internal/axi"
	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/mcm"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// Deployments names the model set a session deploys against one victim:
// one deployment for a single-lane session, or two — the ELM in lane 0 and
// the LSTM in lane 1 — for a dual session where both detectors
// time-multiplex one compute engine (§II's multi-model deployment).
type Deployments []*Deployment

// Option configures Open. Options compose left to right; later options win
// where they overlap.
type Option func(*openConfig)

type openConfig struct {
	base   PipelineConfig
	tel    *obs.Telemetry
	telSet bool
	attack *AttackSpec
	replay bool
	gap    int64
}

// WithConfig sets the pipeline configuration applied to every lane.
func WithConfig(cfg PipelineConfig) Option {
	return func(o *openConfig) { o.base = cfg }
}

// WithEngineWrap installs an inference-engine interceptor on every lane
// (PipelineConfig.EngineWrap); it applies on top of WithConfig. The serving
// layer uses this to route each session's Infer calls through a
// cross-session batching coordinator without the session noticing.
func WithEngineWrap(wrap func(kernels.Backend) kernels.Backend) Option {
	return func(o *openConfig) { o.base.EngineWrap = wrap }
}

// WithTelemetry attaches the observability bundle to the session: scheduler
// and victim gauges, per-stage spans and queue counters, and the judgment
// latency histogram. It overrides any Telemetry set on the pipeline configs.
func WithTelemetry(tel *obs.Telemetry) Option {
	return func(o *openConfig) { o.tel = tel; o.telSet = true }
}

// WithAttack arms the attack at open, exactly as Session.Inject would before
// the first Step: spec is taken literally (BurstLen must be in
// 1..attack.MaxBurstLen; use AttackSpec.Resolve to apply the classic
// experiment defaults first).
func WithAttack(spec AttackSpec) Option {
	return func(o *openConfig) { o.attack = &spec }
}

// WithTraceInput switches the session's front-end from an executing victim
// CPU to a raw PTM trace stream fed via Session.FeedTrace — the serving
// shape, where the monitored SoC is elsewhere and only its CoreSight bytes
// reach the detector. Branch retirements are re-synthesised from the stream
// at a fixed pacing of gapCycles CPU cycles per branch event (plus any
// backpressure stall the trace path reports); 0 picks DefaultReplayGap, and
// Open rejects gaps outside 0..MaxReplayGap. Replay is deterministic: the
// same byte stream yields a bit-identical judgment stream however it is
// chunked.
func WithTraceInput(gapCycles int64) Option {
	return func(o *openConfig) { o.replay = true; o.gap = gapCycles }
}

// Open is the single entry point for detection sessions: it deploys deps
// (one lane, or ELM+LSTM dual lanes) on the simulated MPSoC and returns a
// streaming Session. With no options every lane runs the default pipeline
// configuration against an executing victim CPU; options select the
// config, telemetry, attack arming, and the trace-replay front-end.
// Session.Resolved reports what the defaults resolved to.
//
//	s, err := core.Open(core.Deployments{dep},
//		core.WithConfig(core.PipelineConfig{CUs: 5}),
//		core.WithAttack(spec.Resolve(instr)))
//	res, err := s.Detect(instr)
func Open(deps Deployments, opts ...Option) (*Session, error) {
	var o openConfig
	for _, opt := range opts {
		opt(&o)
	}
	if o.telSet {
		o.base.Telemetry = o.tel
	}
	var (
		s   *Session
		err error
	)
	switch len(deps) {
	case 1:
		s, err = openSingle(deps[0], &o)
	case 2:
		s, err = openDual(deps[0], deps[1], &o)
	default:
		return nil, fmt.Errorf("core: Open needs 1 deployment (single lane) or 2 (ELM+LSTM dual), got %d", len(deps))
	}
	if err != nil {
		return nil, err
	}
	if o.attack != nil {
		if err := s.Inject(*o.attack); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Resolved reports what Open resolved for the session: lane 0's pipeline
// configuration after defaults (CUs, stride, backend name), and the
// trace-replay gap in CPU cycles per branch event (0 for a session with a
// live victim CPU).
func (s *Session) Resolved() (PipelineConfig, int64) {
	var gap int64
	if s.front != nil {
		gap = s.front.gap
	}
	return s.lanes[0].pipe.cfg, gap
}

// frontEnd attaches the victim front-end: the executing CPU model, or the
// trace-replay decoder when WithTraceInput was given.
func (s *Session) frontEnd(dep *Deployment, o *openConfig) error {
	if o.replay {
		f, err := newTraceFront(o.gap)
		s.front = f
		return err
	}
	prog, tcache, err := dep.victimProgram()
	if err != nil {
		return err
	}
	s.cpu = cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: s.swap, Cache: tcache})
	return nil
}

func openSingle(dep *Deployment, o *openConfig) (*Session, error) {
	pipe, err := NewPipeline(dep, o.base)
	if err != nil {
		return nil, err
	}
	s := &Session{
		sched: sim.NewScheduler(),
		fan:   &fanSink{pipes: []*Pipeline{pipe}},
		lanes: []*lane{{dep: dep, pipe: pipe}},
		pool:  dep.Pool,
	}
	s.swap = &swapSink{next: s.fan}
	if err := s.frontEnd(dep, o); err != nil {
		return nil, err
	}
	s.observe(o.base.Telemetry)
	return s, nil
}

func openDual(elmDep, lstmDep *Deployment, o *openConfig) (*Session, error) {
	if elmDep.Kind != ModelELM || lstmDep.Kind != ModelLSTM {
		return nil, fmt.Errorf("core: dual deployment needs one ELM (lane 0) and one LSTM (lane 1)")
	}
	if elmDep.Profile.Name != lstmDep.Profile.Name {
		return nil, fmt.Errorf("core: deployments monitor different benchmarks (%s vs %s)",
			elmDep.Profile.Name, lstmDep.Profile.Name)
	}
	bus, err := axi.RTADTopology()
	if err != nil {
		return nil, err
	}
	shared := mcm.NewSharedEngine()

	tel := o.base.Telemetry
	elmCfg, lstmCfg := o.base, o.base
	elmCfg.SharedEngine, elmCfg.Bus = shared, bus
	elmCfg.Telemetry = tel.Lane("elm")
	lstmCfg.SharedEngine, lstmCfg.Bus = shared, bus
	lstmCfg.Telemetry = tel.Lane("lstm")
	elmPipe, err := NewPipeline(elmDep, elmCfg)
	if err != nil {
		return nil, err
	}
	lstmPipe, err := NewPipeline(lstmDep, lstmCfg)
	if err != nil {
		return nil, err
	}
	s := &Session{
		sched: sim.NewScheduler(),
		fan:   &fanSink{pipes: []*Pipeline{elmPipe, lstmPipe}},
		lanes: []*lane{
			{dep: elmDep, pipe: elmPipe},
			{dep: lstmDep, pipe: lstmPipe},
		},
		pool:   lstmDep.Pool,
		shared: shared,
	}
	s.swap = &swapSink{next: s.fan}
	if err := s.frontEnd(elmDep, o); err != nil {
		return nil, err
	}
	s.observe(tel)
	return s, nil
}

// Detect drives the session to completion as the batch experiments do:
// Step(instr), Drain, verify the armed attack fired, and return lane 0's
// DetectionResult. The attack must have been armed (WithAttack or Inject).
func (s *Session) Detect(instr int64) (*DetectionResult, error) {
	if _, err := s.Step(instr); err != nil {
		return nil, err
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	if !s.AttackFired() {
		return nil, fmt.Errorf("core: attack never fired in %d instructions", instr)
	}
	res, err := s.Summary()
	if err != nil {
		return nil, fmt.Errorf("core: %w (all post-injection vectors dropped?)", err)
	}
	return res, nil
}

// DetectDual is Detect for dual sessions: both lanes' results plus the
// shared-engine contention horizon.
func (s *Session) DetectDual(instr int64) (*DualResult, error) {
	if _, err := s.Step(instr); err != nil {
		return nil, err
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	if !s.AttackFired() {
		return nil, fmt.Errorf("core: attack never fired in %d instructions", instr)
	}
	out := &DualResult{SharedBusyAt: s.SharedBusyAt()}
	var err error
	out.ELM, err = s.LaneSummary(0)
	if err != nil {
		return nil, fmt.Errorf("core: dual ELM: %w", err)
	}
	out.LSTM, err = s.LaneSummary(1)
	if err != nil {
		return nil, fmt.Errorf("core: dual LSTM: %w", err)
	}
	return out, nil
}
