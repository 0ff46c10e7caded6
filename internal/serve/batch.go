package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtad/internal/kernels"
	"rtad/internal/obs"
)

// Cross-session micro-batching. Every session's MCM calls its engine
// synchronously on its fleet worker, so a blocking proxy in front of the
// engine is all it takes to batch across sessions: the proxy parks the
// pending work with the coordinator and the worker sleeps until the batch
// flushes. Pending work from all admitted sessions accumulates until the
// batch is due — full, starved of producers, or past the wall-time window
// — then one fused kernels.GroupRunner pass judges it all and wakes each
// waiter with its own results. Per-session streams are bit-identical to
// the unbatched path — the group pass reproduces each engine's arithmetic
// and state exactly — so batching is purely a host-throughput trade: work
// waits (bounded by the window) for co-scheduling, and in exchange the
// per-call host overhead is paid once per batch instead of once per
// session call.
//
// The unit of batching is whatever the MCM submits per engine call. With
// deferred judgment (calibrated native backends; see kernels.FixedCoster)
// that is a whole trace chunk's worth of windows in one InferBatch — the
// session parks once per chunk, and a flush runs sessions×steps fused
// rows with weights and scratch hot throughout. Engines without a fixed
// cost submit per-vector Infer calls and batch at vector granularity.
//
// The coordinator is worker-driven: there is no dispatcher goroutine.
// Submitters append to the pending batch under a mutex, and the submitter
// (or producer-exit, or timer) that makes the batch due swaps it out and
// runs the fused pass inline, delivering every waiter's result. The
// flusher's own vector therefore never parks — in the degenerate
// single-session case every "batch" is flushed by its only submitter and
// the path costs two mutex acquisitions over plain inference.
//
// Flush reasons:
//   - full: BatchMax vectors are pending
//   - starve: every session runner currently inside a trace chunk is
//     parked in the batch, so no further vector can arrive until this
//     one flushes — waiting out the window would idle the host. Starvation
//     is declared only after the candidate yields the CPU once and the
//     batch still has not grown: producers that are runnable but unscheduled
//     get one pass to contribute, which is what lets batches accumulate at
//     all on a single-core host. This is the common steady-state flush: the
//     batch size adapts to the actual inference concurrency instead of a
//     wall-clock guess, and a lone session degrades to near-inline
//     inference automatically.
//   - window: the wall-time window expired — the fallback bound on
//     waiting when the producer count over-estimates (for example a
//     runner stalled mid-chunk by the OS), and the latency ceiling the
//     operator actually configures.
//   - drain: the server is shutting down; pending vectors flush
//     immediately so blocked sessions can finish and deliver summaries

// DefaultBatchMax bounds a micro-batch (in parked sessions) when
// config.BatchMax is zero.
const DefaultBatchMax = 32

// pendingInfer is one parked engine call: the request plus the channel its
// session worker sleeps on and the owned result buffers the flusher copies
// into (the GroupRunner's result slices are scratch, reused by the next
// fused pass). The channel is buffered so a flusher never blocks
// delivering, and the flusher's own result is simply waiting for it.
type pendingInfer struct {
	req    kernels.BatchRequest
	js     []kernels.Judgment
	cycles []int64
	err    error
	done   chan struct{}
}

var pendingPool = sync.Pool{
	New: func() any { return &pendingInfer{done: make(chan struct{}, 1)} },
}

// batcher is the per-server batching coordinator.
type batcher struct {
	window time.Duration
	max    int

	// mu guards the batch under assembly. It is held only for appends and
	// swaps — never across the fused pass itself.
	mu     sync.Mutex
	cur    []*pendingInfer
	gen    uint64 // bumped by takeLocked; detects "my batch already flushed"
	closed bool
	timer  *time.Timer // fires a window flush for the batch under assembly

	// runnerMu serializes fused passes: the GroupRunner owns its window
	// and result scratch, and with inline flushing two flushers can overlap.
	runnerMu sync.Mutex
	runner   *kernels.GroupRunner
	reqs     []kernels.BatchRequest

	free [][]*pendingInfer // recycled batch slices

	draining atomic.Bool
	drainOne sync.Once

	// producers counts session runners currently inside a trace chunk
	// (FeedTrace or Drain) — the only goroutines that can still add a
	// vector to the pending batch before it flushes. When every producer
	// is parked in the batch, waiting any longer is pure idle time.
	producers atomic.Int64

	mSize        *obs.Histogram
	mLatency     *obs.Histogram
	mInferSec    *obs.Histogram // one fused GroupRunner.InferBatch pass, seconds
	mRows        *obs.Counter
	mFlushWindow *obs.Counter
	mFlushFull   *obs.Counter
	mFlushStarve *obs.Counter
	mFlushDrain  *obs.Counter

	wall *obs.WallTrack // wall-clock flush spans, labelled by reason
}

// BatchSizeBuckets are the batch-size histogram bounds: exponential 1..256.
var BatchSizeBuckets = obs.ExpBuckets(1, 2, 9)

// BatchLatencyBuckets bound the per-batch fused-inference host latency
// histogram, in microseconds: 1us .. ~8ms.
var BatchLatencyBuckets = obs.ExpBuckets(1, 2, 14)

func newBatcher(window time.Duration, max int, tel *obs.Telemetry, wall *obs.WallTracer) *batcher {
	if max <= 0 {
		max = DefaultBatchMax
	}
	b := &batcher{
		window:       window,
		max:          max,
		runner:       kernels.NewGroupRunner(),
		mSize:        tel.Histogram("rtad_serve_batch_size", BatchSizeBuckets),
		mLatency:     tel.Histogram("rtad_serve_batch_infer_latency_us", BatchLatencyBuckets),
		mInferSec:    tel.Histogram("rtad_serve_infer_batch_seconds", ServeSecondsBuckets),
		mRows:        tel.Counter("rtad_serve_batch_rows_total"),
		mFlushWindow: tel.Counter("rtad_serve_batch_flush_window_total"),
		mFlushFull:   tel.Counter("rtad_serve_batch_flush_full_total"),
		mFlushStarve: tel.Counter("rtad_serve_batch_flush_starve_total"),
		mFlushDrain:  tel.Counter("rtad_serve_batch_flush_drain_total"),
		wall:         wall.Track("serve", "batcher"),
	}
	b.timer = time.AfterFunc(time.Hour, b.onTimer)
	b.timer.Stop()
	return b
}

// wrap is the core.WithEngineWrap hook: the session's engine, proxied
// through the coordinator.
func (b *batcher) wrap(be kernels.Backend) kernels.Backend {
	return &batchedEngine{Backend: be, b: b}
}

// producerUp marks one session runner as inside a trace chunk. Both
// methods accept a nil receiver so the unbatched server needs no guards.
func (b *batcher) producerUp() {
	if b != nil {
		b.producers.Add(1)
	}
}

// producerDown marks the chunk finished; with one producer fewer the
// pending batch may now be starved, in which case the leaving runner
// flushes it on its way out.
func (b *batcher) producerDown() {
	if b == nil {
		return
	}
	left := b.producers.Add(-1)
	b.mu.Lock()
	if len(b.cur) > 0 && int64(len(b.cur)) >= left {
		batch := b.takeLocked()
		b.mu.Unlock()
		b.flush(batch, flushStarve)
		return
	}
	b.mu.Unlock()
}

// startDrain switches the coordinator to drain mode: the pending batch
// flushes now, and every later arrival flushes immediately, so sessions
// blocked in inference always progress toward their summary frame.
func (b *batcher) startDrain() {
	b.drainOne.Do(func() {
		b.draining.Store(true)
		b.mu.Lock()
		batch := b.takeLocked()
		b.mu.Unlock()
		if batch != nil {
			b.flush(batch, flushDrain)
		}
	})
}

// close stops the coordinator. Callers must first guarantee no session can
// submit again (the server waits out its sessions before closing); any
// still-pending vectors flush so no waiter is stranded.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	if batch != nil {
		b.flush(batch, flushDrain)
	}
}

// takeLocked swaps the batch under assembly for an empty one and disarms
// the window timer. Callers hold b.mu; nil means nothing was pending.
func (b *batcher) takeLocked() []*pendingInfer {
	if len(b.cur) == 0 {
		return nil
	}
	batch := b.cur
	if n := len(b.free); n > 0 {
		b.cur = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		b.cur = make([]*pendingInfer, 0, b.max)
	}
	b.gen++
	b.timer.Stop()
	return batch
}

// onTimer is the window expiry: whatever is pending has waited long enough.
// A flush racing the callback can leave it a smaller batch than it armed
// for; that is harmless, so no generation tracking is needed.
func (b *batcher) onTimer() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if batch != nil {
		b.flush(batch, flushWindow)
	}
}

// inferBatch parks one engine call — a session's windows, in stream order
// — with the coordinator and blocks until its batch flushes. The submitter
// that makes the batch due — full, starved, or draining — runs the fused
// pass itself, so its own work costs no sleep at all. After close (a
// straggler racing server shutdown) it degrades to the session's own
// engine. The returned slices are the proxy's buffers, valid until its
// next call — the same lifetime the Backend contract grants.
func (b *batcher) inferBatch(e *batchedEngine, windows [][]int32) ([]kernels.Judgment, []int64, error) {
	// The previous call's pendingInfer was handed to the session as its
	// result buffers; its lifetime — "until the next call on this backend"
	// — ends here, so it can recycle now.
	if h := e.held; h != nil {
		e.held = nil
		h.req = kernels.BatchRequest{}
		h.err = nil
		pendingPool.Put(h)
	}
	p := pendingPool.Get().(*pendingInfer)
	p.req = kernels.BatchRequest{Backend: e.Backend, Windows: windows}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		p.req = kernels.BatchRequest{}
		pendingPool.Put(p)
		return e.Backend.InferBatch(windows)
	}
	b.cur = append(b.cur, p)
	if len(b.cur) == 1 {
		b.timer.Reset(b.window)
	}
	gen := b.gen
	stamp := -1 // batch length at the last yield; -1 = not yielded yet
	for {
		switch {
		case b.draining.Load():
			batch := b.takeLocked()
			b.mu.Unlock()
			b.flush(batch, flushDrain)
		case len(b.cur) >= b.max:
			batch := b.takeLocked()
			b.mu.Unlock()
			b.flush(batch, flushFull)
		case int64(len(b.cur)) < b.producers.Load():
			// Producers outside the batch are mid-chunk; they will grow it
			// or flush it. Park.
			b.mu.Unlock()
		case len(b.cur) == stamp:
			// Starved: every producer is parked here, and a full scheduler
			// pass brought no new vector. Waiting longer would only idle.
			batch := b.takeLocked()
			b.mu.Unlock()
			b.flush(batch, flushStarve)
		default:
			// Starve candidate: every producer is accounted for in the
			// batch, but some may simply not have been scheduled yet on
			// this pass. Yield the CPU once so runnable producers can
			// contribute; flush above only if nothing arrived.
			stamp = len(b.cur)
			b.mu.Unlock()
			runtime.Gosched()
			b.mu.Lock()
			if b.gen == gen {
				continue
			}
			// The batch this vector joined flushed while yielding.
			b.mu.Unlock()
		}
		break
	}
	<-p.done
	// Hand the pendingInfer's owned buffers straight back as the result —
	// no copy — and keep p out of the pool until this engine's next call,
	// the exact lifetime the Backend contract grants the slices.
	e.held = p
	return p.js, p.cycles, p.err
}

// Flush reasons, as both counter selectors and wall-trace span labels.
const (
	flushWindow = "window"
	flushFull   = "full"
	flushStarve = "starve"
	flushDrain  = "drain"
)

func (b *batcher) flushCounter(reason string) *obs.Counter {
	switch reason {
	case flushWindow:
		return b.mFlushWindow
	case flushFull:
		return b.mFlushFull
	case flushStarve:
		return b.mFlushStarve
	default:
		return b.mFlushDrain
	}
}

// flush runs one fused pass over a taken batch and wakes every waiter.
func (b *batcher) flush(batch []*pendingInfer, reason string) {
	b.runnerMu.Lock()
	reqs := b.reqs[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	b.reqs = reqs
	t0 := time.Now()
	results := b.runner.InferGroup(reqs)
	infer := time.Since(t0)
	b.mLatency.Observe(float64(infer) / float64(time.Microsecond))
	b.mInferSec.Observe(infer.Seconds())
	b.mSize.Observe(float64(len(batch)))
	rows := 0
	// Result copies happen under runnerMu: the result slices are the
	// runner's arenas, reused by the next fused pass. Each waiter gets its
	// results in its pendingInfer's owned buffers.
	for i, p := range batch {
		r := results[i]
		p.js = append(p.js[:0], r.Js...)
		p.cycles = append(p.cycles[:0], r.Cycles...)
		p.err = r.Err
		rows += len(p.req.Windows)
		p.done <- struct{}{} // buffered: never blocks, flusher's own included
		batch[i] = nil
	}
	b.mRows.Add(int64(rows))
	b.flushCounter(reason).Inc()
	b.wall.Since("flush", t0, map[string]any{
		"reason": reason, "size": len(batch), "rows": rows,
	})
	b.runnerMu.Unlock()
	b.mu.Lock()
	b.free = append(b.free, batch[:0])
	b.mu.Unlock()
}

// batchedEngine is the per-session engine proxy: every inference entry
// point parks with the coordinator; Name and Window pass through. The
// session's results live in the pendingInfer retained on `held` (one call
// in flight at a time, like any Backend), and FixedCost is forwarded so
// the MCM's deferred judgment — the mechanism that turns per-vector calls
// into per-chunk InferBatch calls — survives the wrapping (interface
// embedding only promotes the Backend methods).
type batchedEngine struct {
	kernels.Backend
	b    *batcher
	held *pendingInfer // last call's result buffers, recycled on the next call
	one  [1][]int32    // single-window scratch for Infer
}

func (e *batchedEngine) Infer(window []int32) (kernels.Judgment, int64, error) {
	e.one[0] = window
	js, cycles, err := e.b.inferBatch(e, e.one[:])
	e.one[0] = nil
	if err != nil {
		return kernels.Judgment{}, 0, err
	}
	return js[0], cycles[0], nil
}

func (e *batchedEngine) InferBatch(windows [][]int32) ([]kernels.Judgment, []int64, error) {
	return e.b.inferBatch(e, windows)
}

// FixedCost reports the wrapped engine's fixed cost, if any.
func (e *batchedEngine) FixedCost() (int64, bool) {
	if fc, ok := e.Backend.(kernels.FixedCoster); ok {
		return fc.FixedCost()
	}
	return 0, false
}
