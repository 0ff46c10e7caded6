package core

import (
	"fmt"

	"rtad/internal/axi"
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
// owner's default; NewPipeline rejects values outside their bounds.
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
	// EngineWrap, when non-nil, wraps the constructed inference backend
	// before the MCM sees it. This is the serving layer's interception
	// point: a cross-session batching coordinator substitutes an engine
	// whose Infer parks the vector in a shared micro-batch. Wrappers must
	// preserve the Backend contract — same judgments, cycles and errors as
	// the wrapped engine would produce on the same stream.
	EngineWrap func(kernels.Backend) kernels.Backend
	// SharedEngine and Bus support multi-model deployments: pass the same
	// token/interconnect to several pipelines so their MCMs contend for
	// one compute engine and one switch (Open wires this for dual
	// deployments).
	SharedEngine *mcm.SharedEngine
	Bus          *axi.Interconnect
	// Telemetry, when non-nil, threads the observability layer through
	// every stage of this pipeline (and, via Session, the scheduler and
	// victim CPU): stage spans and queue counters on the tracer, plus the
	// branch-retire -> judgment latency histogram — the Fig 8 quantity.
	// Nil (the default) keeps the whole chain a no-op and the run's
	// outputs bit-identical to an un-instrumented build.
	Telemetry *obs.Telemetry
	// StagedTrace selects the staged byte/word trace-delivery reference
	// path: every PTM byte is materialised as a TimedByte, pushed through
	// the TPIU formatter one call each, framed into TimedWords, deframed,
	// and PTM-re-decoded by the IGM. The default (false) uses the fused
	// fast path, which computes the identical delivery timestamps
	// analytically from the encoder's packet boundaries and the port's
	// release schedules — bit-identical judgments, stats, and stage
	// snapshots (see DESIGN §13), at a fraction of the per-branch cost.
	StagedTrace bool
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

	dev    *gpu.Device
	engine mcm.Engine
	enc    *ptm.Encoder
	port   *ptm.Port
	fmtr   *tpiu.Formatter
	ig     *igm.IGM
	mod    *mcm.MCM

	// acceptedRetire records the retirement time of each mapper-accepted
	// taken branch; vectors index it by AcceptedIdx to recover FinalRetire.
	// It is pruned behind retireBase: acceptedRetire[i] belongs to accepted
	// ordinal retireBase+i+1, and ordinals at or below the highest consumed
	// AcceptedIdx are compacted away (amortised), so capacity stays bounded
	// by the stride gap instead of growing for the life of the session.
	acceptedRetire []sim.Time
	retireBase     int64
	judged         []Judged
	// pendIdx indexes the judged entries whose Rec.Pending is set: vectors
	// the MCM has fully timed but not yet judged (deferred judgment). They
	// resolve in one fused engine call at SettleJudgments.
	pendIdx []int
	err     error

	// Per-branch scratch buffers: BranchRetired and drain run once per
	// retired branch, so every stage hand-off reuses these instead of
	// allocating fresh slices.
	encBuf     []byte
	tbScratch  []ptm.TimedByte
	twScratch  []tpiu.TimedWord
	vecScratch []igm.Vector

	// Fused fast-path state (cfg.StagedTrace == false). The encoder reports
	// packet boundaries as byte offsets; pend holds them (with the class
	// resolved at retire time) until the frame carrying a packet's last
	// byte emits, at which point the packet is handed straight to the IGM.
	staged    bool
	markBuf   []ptm.PacketMark
	pend      []pendPkt
	pendHd    int
	encBase   int64 // trace bytes encoded so far (global stream offset)
	fedBytes  int64 // payload bytes delivered to the IGM via emitted frames
	feScratch []tpiu.FrameEmit

	// Judgment telemetry lives here rather than in Session.deliver so the
	// recording order follows the instruction stream, keeping trace output
	// invariant to how callers slice Step().
	latHist      *obs.Histogram
	obsJudgments *obs.Counter
	judgTrack    *obs.Track
}

// pendPkt is one encoded-but-undelivered trace packet on the fused fast
// path: it completes at any decoder once the byte just before end has been
// carried by an emitted frame.
type pendPkt struct {
	end      int64  // global stream offset just past the packet's last byte
	addr     uint32 // decoded branch target (branch packets only)
	class    int32  // mapper class, resolved once at retire time
	branch   bool
	accepted bool
}

// JudgmentLatencyBuckets are the histogram bounds for the Fig 8 latency, in
// microseconds: 0.5us .. ~4ms exponential, bracketing the paper's 4–54us
// range with room for queueing tails.
var JudgmentLatencyBuckets = obs.ExpBuckets(0.5, 2, 14)

// NewPipeline instantiates the SoC for a deployment.
func NewPipeline(dep *Deployment, cfg PipelineConfig) (*Pipeline, error) {
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
	if cfg.EngineWrap != nil {
		engine = cfg.EngineWrap(engine)
	}
	mod, err := mcm.New(mcm.Config{
		Engine:    engine,
		Translate: dep.Translate,
		FIFODepth: cfg.FIFODepth,
		Bus:       cfg.Bus,
		Shared:    cfg.SharedEngine,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	dev.Observe(cfg.Telemetry)
	p := &Pipeline{
		dep:    dep,
		cfg:    cfg,
		dev:    dev,
		engine: engine,
		enc:    ptm.NewEncoder(ptm.Config{BranchBroadcast: true}),
		port:   ptm.NewPort(ptm.PortConfig{DrainThreshold: cfg.DrainThreshold, Telemetry: cfg.Telemetry}),
		fmtr:   tpiu.NewFormatter(tpiu.Config{Telemetry: cfg.Telemetry}),
		ig: igm.New(igm.Config{
			Mapper:    dep.Mapper,
			Window:    dep.Window(),
			Stride:    cfg.Stride,
			Telemetry: cfg.Telemetry,
		}),
		mod:    mod,
		staged: cfg.StagedTrace,
	}
	if tel := cfg.Telemetry; tel != nil {
		p.latHist = tel.Histogram("rtad_judgment_latency_us", JudgmentLatencyBuckets)
		p.obsJudgments = tel.Counter("rtad_judgments_total")
		p.judgTrack = tel.Track("fabric", "judgments")
	}
	return p, nil
}

// BranchRetired implements cpu.Sink: it drives the whole CoreSight → IGM →
// MCM path for one retired branch, advancing every stage's timing model.
func (p *Pipeline) BranchRetired(ev cpu.BranchEvent) int64 {
	if p.staged {
		return p.branchRetiredStaged(ev)
	}
	at := sim.CPUClock.Duration(ev.Cycle)
	// Single mapper lookup per taken branch: the class the IGM will need is
	// resolved here (on the wire-decoded even address — the encoding drops
	// bit 0) and threaded through the pending-packet queue.
	var (
		class    int32
		accepted bool
	)
	if ev.Taken {
		class, accepted = p.dep.Mapper.Lookup(ev.Target &^ 1)
		if ev.Target&1 != 0 {
			// Odd target: the retire-time record keys the raw address (the
			// staged path's semantics), which may resolve differently from
			// the wire-decoded one. Rare enough to afford a second lookup.
			if _, ok := p.dep.Mapper.Lookup(ev.Target); ok {
				p.acceptedRetire = append(p.acceptedRetire, at)
			}
		} else if accepted {
			p.acceptedRetire = append(p.acceptedRetire, at)
		}
	}
	p.encBuf, p.markBuf = p.enc.EncodeMarked(p.encBuf[:0], p.markBuf[:0], ev)
	p.queueMarks(class, accepted)
	rel, stall := p.port.PushCounted(at, len(p.encBuf))
	p.feedRelease(rel)
	p.drainVectors()
	return sim.CPUClock.CyclesCeil(stall)
}

// branchRetiredStaged is the byte/word reference path (cfg.StagedTrace).
func (p *Pipeline) branchRetiredStaged(ev cpu.BranchEvent) int64 {
	at := sim.CPUClock.Duration(ev.Cycle)
	if ev.Taken {
		if _, ok := p.dep.Mapper.Lookup(ev.Target); ok {
			p.acceptedRetire = append(p.acceptedRetire, at)
		}
	}
	p.encBuf = p.enc.EncodeInto(p.encBuf[:0], ev)
	stall := p.port.Push(at, p.encBuf)
	p.drain()
	return sim.CPUClock.CyclesCeil(stall)
}

// queueMarks appends the packets just encoded into encBuf to the pending
// queue at their global stream offsets. class/accepted apply to the branch
// packet the event may have produced (an event encodes at most one).
func (p *Pipeline) queueMarks(class int32, accepted bool) {
	for _, mk := range p.markBuf {
		p.pend = append(p.pend, pendPkt{
			end:      p.encBase + int64(mk.End),
			addr:     mk.Addr,
			class:    class,
			branch:   mk.Branch,
			accepted: accepted,
		})
	}
	p.encBase += int64(len(p.encBuf))
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
// the frame carrying its last byte and shares that frame's TA decode time —
// exactly the staged Deframer/StreamDecoder behaviour.
func (p *Pipeline) deliverFrame(fe tpiu.FrameEmit) {
	decodeAt := p.ig.FrameArrived(fe.LastWordAt)
	p.fedBytes += int64(fe.Payload)
	for p.pendHd < len(p.pend) && p.pend[p.pendHd].end <= p.fedBytes {
		pk := p.pend[p.pendHd]
		p.pendHd++
		if pk.branch {
			p.ig.BranchDecoded(decodeAt, pk.addr, pk.class, pk.accepted)
		} else {
			p.ig.PacketDecoded()
		}
	}
	// Amortised compaction of the consumed prefix keeps pend bounded by the
	// drain threshold's worth of in-flight packets.
	if p.pendHd >= 64 && p.pendHd*2 >= len(p.pend) {
		n := copy(p.pend, p.pend[p.pendHd:])
		p.pend = p.pend[:n]
		p.pendHd = 0
	}
}

// drain moves whatever each stage has produced into the next stage (staged
// path). All hand-offs go through the TakeInto scratch buffers, so in
// steady state — in particular for every filtered or non-emitting branch —
// a drain pass allocates nothing.
func (p *Pipeline) drain() {
	p.tbScratch = p.port.TakeInto(p.tbScratch[:0])
	for _, tb := range p.tbScratch {
		p.fmtr.Push(tb.At, tb.B)
	}
	p.twScratch = p.fmtr.TakeInto(p.twScratch[:0])
	for _, w := range p.twScratch {
		p.ig.FeedWord(w)
	}
	p.drainVectors()
}

// drainVectors moves completed vectors into the MCM and records judgments;
// it is the shared tail of both trace paths.
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
		if rec.Pending {
			p.pendIdx = append(p.pendIdx, len(p.judged)-1)
		}
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
	if p.staged {
		p.encBuf = p.enc.FlushInto(p.encBuf[:0])
		p.port.Push(at, p.encBuf)
		p.port.Flush(at)
		p.drain()
		p.fmtr.Flush(at)
		p.twScratch = p.fmtr.TakeInto(p.twScratch[:0])
		for _, w := range p.twScratch {
			p.ig.FeedWord(w)
		}
		p.drain()
		return
	}
	p.encBuf, p.markBuf = p.enc.FlushMarked(p.encBuf[:0], p.markBuf[:0])
	p.queueMarks(0, false)
	rel, _ := p.port.PushCounted(at, len(p.encBuf))
	p.feedRelease(rel)
	p.feedRelease(p.port.FlushCounted(at))
	// Drain at the same two points as the staged Flush (after the port
	// flush, and again after the formatter flush) so the IGM out-queue's
	// high-water mark groups vectors identically.
	p.drainVectors()
	if fe, ok := p.fmtr.FlushCounted(at); ok {
		p.deliverFrame(fe)
	}
	p.drainVectors()
}

// SettleJudgments resolves every deferred judgment in one fused engine
// call (a no-op when nothing is pending). Callers must settle before
// reading Judged entries appended since the last settle — Session.deliver
// does, so streaming consumers never see a pending record.
func (p *Pipeline) SettleJudgments() {
	if len(p.pendIdx) == 0 {
		return
	}
	js, err := p.mod.Settle()
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		p.pendIdx = p.pendIdx[:0]
		return
	}
	for k, idx := range p.pendIdx {
		p.mod.Complete(&p.judged[idx].Rec, js[k])
	}
	p.pendIdx = p.pendIdx[:0]
}

// Judged returns every vector that reached a judgment, in order.
func (p *Pipeline) Judged() []Judged { return p.judged }

// Err returns the first pipeline error, if any.
func (p *Pipeline) Err() error { return p.err }

// MCMStats exposes the module counters (drops, occupancy).
func (p *Pipeline) MCMStats() mcm.Stats { return p.mod.Stats() }

// IGMStats exposes the IGM counters.
func (p *Pipeline) IGMStats() igm.Stats { return p.ig.Stats() }

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
