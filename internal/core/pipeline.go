package core

import (
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/gpu"
	"rtad/internal/igm"
	"rtad/internal/kernels"
	"rtad/internal/mcm"
	"rtad/internal/obs"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// PipelineConfig sizes the runtime system. Zero fields pick their
// owner's default; Open rejects values outside their bounds.
type PipelineConfig struct {
	// CUs is the compute-unit count: 1 models the original MIAOW (only a
	// single CU fits the FPGA), 5 the trimmed ML-MIAOW (§IV-A). 0 picks
	// MaxCUs; counts outside 0..MaxCUs are rejected.
	CUs int
	// Stride is the IGM emission stride; 0 picks the deployment default
	// (every syscall window for ELM, DefaultLSTMStride accepted branches
	// for the LSTM — tuned so ML-MIAOW's service rate keeps up, §IV-C).
	// A negative stride is rejected.
	Stride int
	// FIFODepth is the MCM vector FIFO capacity.
	FIFODepth int
	// DrainThreshold is the PTM formatter hold-back in bytes; 0 picks
	// ptm.DefaultDrainThreshold.
	DrainThreshold int
	// Backend selects the inference engine implementation
	// (kernels.BackendGPU or kernels.BackendNativeCalibrated); empty picks
	// kernels.DefaultBackend. Both produce bit-identical judgment streams —
	// the native one just skips the per-inference GPU interpretation.
	Backend string
	// Calibration, when non-nil, is the shared cycle-cost table the native
	// backend replays WAIT_DONE timing from; passing one table to every
	// pipeline in a run amortises the one-time GPU calibration pass.
	Calibration *kernels.Calibration
	// StagedTrace selects the byte/word reference chain, the oracle the
	// counted chain is checked against: it moves real PTM bytes through
	// its own port and TPIU frame model and decodes them again before the
	// IGM (reference.go). The default (false) is the counted chain, which
	// computes the same delivery timestamps in closed form from the
	// encoder's packet boundaries and the port's release schedules —
	// bit-identical judgments, stats, and stage snapshots (see DESIGN §13),
	// at a fraction of the per-branch cost.
	StagedTrace bool
}

// wiring is what Open threads into a pipeline beside its config, set only
// through Open's options: the telemetry bundle (WithTelemetry), the
// inference-engine interceptor (WithEngineWrap), and, for dual sessions,
// the engine token both lanes' MCMs contend for.
type wiring struct {
	// tel, when non-nil, threads the observability layer through every
	// stage of this pipeline (and, via Session, judgment delivery and the
	// victim CPU): stage spans and queue counters on the tracer, plus the
	// branch-retire -> judgment latency histogram — the Fig 8 quantity.
	// Nil keeps the whole chain a no-op and the run's outputs
	// bit-identical to an un-instrumented build.
	tel *obs.Telemetry
	// wrap, when non-nil, wraps the constructed inference backend before
	// the MCM sees it: the serving layer's batching interception point.
	wrap   func(kernels.Backend) kernels.Backend
	shared *mcm.SharedEngine
}

// Default runtime strides and the compute-unit bound.
const (
	DefaultELMStride = 1
	// DefaultLSTMStride paces general-branch vectors so the inference
	// engine's service rate keeps up on MIAOW for all but the densest
	// benchmarks (471.omnetpp overflows, as in Fig 8's discussion), and
	// comfortably on ML-MIAOW.
	DefaultLSTMStride = 3840
	// MaxCUs bounds PipelineConfig.CUs and is its default: ML-MIAOW's five
	// compute units (§IV-A). No shipped kernel dispatches more than five
	// wavefronts (kernels.ELMWaves; the LSTM dispatches one per gate), so
	// the greedy wavefront scheduler gives any larger count identical
	// timing, while the device sizes per-dispatch state by it.
	MaxCUs = 5
)

// withDefaults resolves zero fields to their defaults and rejects values
// outside their bounds. The backend and drain threshold are resolved by
// the packages that own them (kernels.NewBackend, ptm.NewPort).
func (c PipelineConfig) withDefaults(kind ModelKind) (PipelineConfig, error) {
	switch {
	case c.CUs == 0:
		c.CUs = MaxCUs
	case c.CUs < 0 || c.CUs > MaxCUs:
		return c, fmt.Errorf("core: %d CUs outside 1..%d", c.CUs, MaxCUs)
	}
	switch {
	case c.Stride == 0 && kind == ModelELM:
		c.Stride = DefaultELMStride
	case c.Stride == 0:
		c.Stride = DefaultLSTMStride
	case c.Stride < 0:
		return c, fmt.Errorf("core: stride must be non-negative, got %d", c.Stride)
	}
	return c, nil
}

// Judged is one vector's complete journey through the SoC.
type Judged struct {
	Vector igm.Vector
	Rec    mcm.Record
	// FinalRetire is the CPU retirement time of the branch that completed
	// the vector — the anchor of the paper's detection-latency metric.
	FinalRetire sim.Time
}

// JudgmentLatency is the Fig 8 quantity: retirement of the judged branch to
// judgment available at the MCM RX engine.
func (j Judged) JudgmentLatency() sim.Time { return j.Rec.Done - j.FinalRetire }

// Pipeline is the live RTAD system for one deployment.
type Pipeline struct {
	dep *Deployment
	cfg PipelineConfig
	tel *obs.Telemetry

	dev    *gpu.Device
	engine mcm.Engine
	enc    *ptm.Encoder
	port   *ptm.Port
	fmtr   *tpiu.Formatter
	ig     *igm.IGM
	mod    *mcm.MCM
	// ref, when non-nil, is the byte/word reference chain, which then
	// carries every retired branch instead of enc, port and fmtr.
	ref *reference

	// acceptedRetire records the retirement time of each mapper-accepted
	// taken branch; vectors index it by AcceptedIdx to recover FinalRetire.
	// It is pruned behind retireBase: acceptedRetire[i] belongs to accepted
	// ordinal retireBase+i+1, and ordinals at or below the highest consumed
	// AcceptedIdx are compacted away (amortised), so capacity stays bounded
	// by the stride gap instead of growing for the life of the session.
	acceptedRetire []sim.Time
	retireBase     int64
	// judged holds the judgments not yet handed over by TakeJudged, in push
	// order. Records the MCM has fully timed but not yet judged (deferred
	// judgment, Rec.Pending) can only sit here, and TakeJudged resolves
	// them in one fused engine call before they leave.
	judged []Judged
	err    error

	// vecScratch is drainVectors' hand-off buffer, reused on every call.
	vecScratch []igm.Vector

	// Counted-chain state. The counted encoder appends a mark per packet
	// to pend, and verdicts holds each queued branch packet's mapper
	// class, resolved at retire time. A packet is handed straight to the
	// IGM once the frame carrying its last byte emits.
	pend      []ptm.PacketMark
	pendHd    int
	verdicts  []verdict
	verdHd    int
	fedBytes  int64 // payload bytes delivered to the IGM via emitted frames
	feScratch []tpiu.FrameEmit

	// Judgment telemetry lives here rather than in Session.deliver so the
	// recording order follows the instruction stream, keeping trace output
	// invariant to how callers slice Step().
	latHist      *obs.Histogram
	obsJudgments *obs.Counter
	judgTrack    *obs.Track
}

// verdict is the mapper's answer for one queued branch packet on the
// counted chain.
type verdict struct {
	class    int32
	accepted bool
}

// JudgmentLatencyBuckets are the histogram bounds for the Fig 8 latency, in
// microseconds: 0.5us .. ~4ms exponential, bracketing the paper's 4–54us
// range with room for queueing tails.
var JudgmentLatencyBuckets = obs.ExpBuckets(0.5, 2, 14)

// newPipeline instantiates the SoC for a deployment.
func newPipeline(dep *Deployment, cfg PipelineConfig, w wiring) (*Pipeline, error) {
	cfg, err := cfg.withDefaults(dep.Kind)
	if err != nil {
		return nil, err
	}
	var (
		dev  *gpu.Device
		spec kernels.Spec
	)
	switch dep.Kind {
	case ModelELM:
		dev = gpu.NewDevice(kernels.ELMMemEnd, cfg.CUs)
		spec = kernels.Spec{Dev: dev, ELM: dep.ELM}
	case ModelLSTM:
		dev = gpu.NewDevice(kernels.LSTMMemEnd, cfg.CUs)
		spec = kernels.Spec{Dev: dev, LSTM: dep.LSTM}
	default:
		return nil, fmt.Errorf("core: unknown model kind")
	}
	spec.Calibration = cfg.Calibration
	engine, err := kernels.NewBackend(cfg.Backend, spec)
	if err != nil {
		return nil, err
	}
	cfg.Backend = engine.Name()
	if w.wrap != nil {
		engine = w.wrap(engine)
	}
	mod, err := mcm.New(mcm.Config{
		Engine:    engine,
		Translate: dep.Translate,
		FIFODepth: cfg.FIFODepth,
		Shared:    w.shared,
		Telemetry: w.tel,
	})
	if err != nil {
		return nil, err
	}
	dev.Observe(w.tel)
	p := &Pipeline{
		dep:    dep,
		cfg:    cfg,
		tel:    w.tel,
		dev:    dev,
		engine: engine,
		enc:    ptm.NewEncoder(ptm.Config{BranchBroadcast: true}),
		port:   ptm.NewPort(ptm.PortConfig{DrainThreshold: cfg.DrainThreshold, Telemetry: w.tel}),
		fmtr:   tpiu.NewFormatter(tpiu.Config{Telemetry: w.tel}),
		ig: igm.New(igm.Config{
			Mapper:    dep.Mapper,
			Window:    dep.Window(),
			Stride:    cfg.Stride,
			Telemetry: w.tel,
		}),
		mod: mod,
	}
	if cfg.StagedTrace {
		p.ref = newReference(dep.Mapper, p.ig, cfg.DrainThreshold)
	}
	if tel := w.tel; tel != nil {
		p.latHist = tel.Histogram("rtad_judgment_latency_us", JudgmentLatencyBuckets)
		p.obsJudgments = tel.Counter("rtad_judgments_total")
		p.judgTrack = tel.Track("fabric", "judgments")
	}
	return p, nil
}

// BranchRetired implements cpu.Sink: it drives the whole CoreSight → IGM →
// MCM path for one retired branch, advancing every stage's timing model.
func (p *Pipeline) BranchRetired(ev cpu.BranchEvent) int64 {
	if p.ref != nil {
		return p.branchRetiredRef(ev)
	}
	at := sim.CPUClock.Duration(ev.Cycle)
	// Single mapper lookup per taken branch: the class the IGM will need is
	// resolved here (on the wire-decoded even address — the encoding drops
	// bit 0) and queued beside the packet marks. The broadcast encoder
	// emits exactly one branch packet per taken branch, so verdicts pair
	// with branch marks in order.
	if ev.Taken {
		class, accepted := p.dep.Mapper.Lookup(ev.Target &^ 1)
		if ev.Target&1 != 0 {
			// Odd target: the retire-time record keys the raw address (the
			// reference's semantics), which may resolve differently from
			// the wire-decoded one. Rare enough to afford a second lookup.
			if _, ok := p.dep.Mapper.Lookup(ev.Target); ok {
				p.acceptedRetire = append(p.acceptedRetire, at)
			}
		} else if accepted {
			p.acceptedRetire = append(p.acceptedRetire, at)
		}
		p.verdicts = append(p.verdicts, verdict{class, accepted})
	}
	var n int
	p.pend, n = p.enc.EncodeCounted(p.pend, ev)
	rel, stall := p.port.PushCounted(at, n)
	// Vectors reach the IGM out-queue only through deliverFrame, so a
	// branch that releases no bytes leaves nothing to drain.
	if rel.Bytes > 0 {
		p.feedRelease(rel)
		p.drainVectors()
	}
	if stall == 0 {
		return 0
	}
	return sim.CPUClock.CyclesCeil(stall)
}

// feedRelease advances the formatter by one port release schedule and
// delivers every frame it completes.
func (p *Pipeline) feedRelease(rel ptm.Release) {
	if rel.Bytes == 0 {
		return
	}
	p.feScratch = p.fmtr.PushCounted(rel.Start, rel.Step, rel.Group, rel.Bytes, p.feScratch[:0])
	for _, fe := range p.feScratch {
		p.deliverFrame(fe)
	}
}

// deliverFrame hands every packet completed by one emitted frame to the
// IGM. Frames emit in stream order, so each pending packet is delivered by
// the frame carrying its last byte and shares that frame's TA decode time,
// as a decoder fed the frame's payload would complete it.
func (p *Pipeline) deliverFrame(fe tpiu.FrameEmit) {
	decodeAt := p.ig.FrameArrived(fe.LastWordAt)
	p.fedBytes += int64(fe.Payload)
	for ; p.pendHd < len(p.pend) && p.pend[p.pendHd].End <= p.fedBytes; p.pendHd++ {
		pk := &p.pend[p.pendHd]
		if !pk.Branch {
			p.ig.PacketDecoded()
			continue
		}
		v := p.verdicts[p.verdHd]
		p.verdHd++
		p.ig.BranchDecoded(decodeAt, pk.Addr, v.class, v.accepted)
	}
	// Amortised compaction of the consumed prefixes keeps both queues
	// bounded by the drain threshold's worth of in-flight packets.
	p.pend, p.pendHd = compactQueue(p.pend, p.pendHd)
	p.verdicts, p.verdHd = compactQueue(p.verdicts, p.verdHd)
}

// compactQueue drops a queue's consumed prefix q[:hd] once it is at least
// 64 entries and half the slice, so the copy is amortised over the pops.
func compactQueue[T any](q []T, hd int) ([]T, int) {
	if hd < 64 || hd*2 < len(q) {
		return q, hd
	}
	return q[:copy(q, q[hd:])], 0
}

// drainVectors moves completed vectors into the MCM and records judgments;
// the counted chain and the reference share it.
func (p *Pipeline) drainVectors() {
	p.vecScratch = p.ig.TakeInto(p.vecScratch[:0])
	for _, v := range p.vecScratch {
		rec, ok, err := p.mod.Push(v)
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			p.ig.Recycle(v.Classes)
			p.pruneRetire(v.AcceptedIdx)
			continue
		}
		if !ok {
			// Dropped at the MCM FIFO: the vector dies here, so its pooled
			// window goes back to the IGM.
			p.ig.Recycle(v.Classes)
			p.pruneRetire(v.AcceptedIdx)
			continue
		}
		idx := v.AcceptedIdx - 1 - p.retireBase
		var retire sim.Time
		if idx >= 0 && idx < int64(len(p.acceptedRetire)) {
			retire = p.acceptedRetire[idx]
		}
		p.pruneRetire(v.AcceptedIdx)
		// Judged retains the vector (and its Classes buffer), so it is not
		// recycled — ownership transfers to the judgment record.
		j := Judged{Vector: v, Rec: rec, FinalRetire: retire}
		p.judged = append(p.judged, j)
		if p.obsJudgments != nil {
			p.obsJudgments.Inc()
			latUS := float64(j.JudgmentLatency()) / float64(sim.Microsecond)
			p.latHist.Observe(latUS)
			// Deferred records have no judgment yet; the track instant needs
			// it, but deferral is only enabled when tracing is off.
			if p.judgTrack != nil && !rec.Pending {
				p.judgTrack.Instant("judgment", int64(rec.Done), map[string]any{
					"seq": v.Seq, "latency_us": latUS, "anomaly": rec.Judgment.Anomaly,
				})
			}
		}
	}
}

// pruneRetire discards acceptedRetire entries for accepted ordinals at or
// below consumed. AcceptedIdx is strictly increasing across vectors, so a
// consumed ordinal is never read again — including ordinals that never
// produced a vector (stride skips) or whose vector the MCM dropped.
// Compaction is amortised: it runs only when the dead prefix is both large
// and the majority of the slice, bounding per-branch cost at O(1) and the
// slice length at roughly twice the live window.
func (p *Pipeline) pruneRetire(consumed int64) {
	dead := consumed - p.retireBase
	if dead > int64(len(p.acceptedRetire)) {
		dead = int64(len(p.acceptedRetire))
	}
	if dead < 1024 || dead*2 < int64(len(p.acceptedRetire)) {
		return
	}
	n := copy(p.acceptedRetire, p.acceptedRetire[dead:])
	p.acceptedRetire = p.acceptedRetire[:n]
	p.retireBase += dead
}

// Flush pushes out any residual trace data at time at (end of a window).
func (p *Pipeline) Flush(at sim.Time) {
	if p.ref != nil {
		p.flushRef(at)
		return
	}
	var n int
	p.pend, n = p.enc.FlushCounted(p.pend)
	rel, _ := p.port.PushCounted(at, n)
	p.feedRelease(rel)
	p.feedRelease(p.port.FlushCounted(at))
	// Drain at the same two points as the reference's Flush (after the
	// port flush, and again after the formatter flush) so the IGM
	// out-queue's high-water mark groups vectors identically.
	p.drainVectors()
	if fe, ok := p.fmtr.FlushCounted(at); ok {
		p.deliverFrame(fe)
	}
	p.drainVectors()
}

// TakeJudged appends every judgment made since the last call to dst, in
// push order, and forgets them: the pipeline keeps no judgment history.
// Deferred records are settled first, in one fused engine call, so none
// leaves pending unless that call fails (reported by Err).
func (p *Pipeline) TakeJudged(dst []Judged) []Judged {
	js, err := p.mod.Settle()
	if err != nil && p.err == nil {
		p.err = err
	}
	// The pending records are this tail's deferred pushes, and Settle
	// judged them in push order.
	for i := 0; len(js) > 0; i++ {
		if rec := &p.judged[i].Rec; rec.Pending {
			p.mod.Complete(rec, js[0])
			js = js[1:]
		}
	}
	dst = append(dst, p.judged...)
	clear(p.judged)
	p.judged = p.judged[:0]
	return dst
}

// Err returns the first pipeline error, if any.
func (p *Pipeline) Err() error { return p.err }

// MCMStats exposes the module counters (drops, occupancy).
func (p *Pipeline) MCMStats() mcm.Stats { return p.mod.Stats() }

// AttackSpec configures the detection experiment's injection.
type AttackSpec struct {
	// TriggerBranch fires the attack after this many victim taken
	// transfers; Resolve turns 0 into 40 % of the expected run's
	// transfers.
	TriggerBranch int64
	// BurstLen is the injected legitimate-event count; Resolve turns 0
	// into the classic burst.
	BurstLen int
	// Mimicry replays a *contiguous* legitimate trace segment instead of
	// independently sampled events — the evasion technique the LSTM
	// branch models of [8] are designed to resist. Expect weaker margins:
	// only the splice boundaries look anomalous.
	Mimicry bool
	Seed    int64
}

// DetectionResult is one Fig 8 measurement.
type DetectionResult struct {
	Benchmark string
	Kind      ModelKind
	CUs       int

	InjectTime sim.Time
	// First is the first judged vector completed by a branch at or after
	// the injection: the judgment the paper times.
	First *Judged
	// Latency = First.JudgmentLatency().
	Latency sim.Time
	// MeanLatency averages the judgment latency over every post-injection
	// vector (queueing and contention effects show up here).
	MeanLatency sim.Time
	// IRQTime is when the anomaly interrupt reached the CPU (0 if the
	// detector never flagged within the run).
	IRQTime sim.Time
	// Detected reports whether any post-injection vector was flagged.
	Detected bool

	Judged  int
	Dropped int64
	MaxOcc  int

	// Stages is the end-of-run snapshot of the trace-delivery chain
	// (ptm/tpiu/igm/mcm), each stage reporting the uniform Len/MaxDepth/
	// Overflows triple.
	Stages []StageSnapshot
}

// Resolve applies the classic experiment defaults to an attack spec for a
// run of instr instructions: a 32768-event burst and a trigger at 1/40 of
// the expected taken transfers, so Open(WithAttack(spec.Resolve(instr)))
// followed by Detect(instr) reproduces the paper's detection runs.
func (a AttackSpec) Resolve(instr int64) AttackSpec {
	if a.BurstLen <= 0 {
		// Long enough that several input vectors land fully inside the
		// attack even at the widest stride (~1 ms of hijacked execution).
		a.BurstLen = 32768
	}
	if a.TriggerBranch <= 0 {
		// Early enough that even branch-sparse benchmarks reach the
		// trigger and leave room for post-attack judgments.
		a.TriggerBranch = instr / 40
	}
	return a
}
