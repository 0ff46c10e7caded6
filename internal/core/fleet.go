package core

import (
	"runtime"
	"sync"
)

// Fleet runs independent detection sessions concurrently. Each session owns
// its CPU and pipelines, so runs stay bit-deterministic no matter how they
// interleave; trained Deployments are read-only during inference and safely
// shared across every worker (the contract DESIGN.md §4 states and the
// -race fleet test enforces).
type Fleet struct {
	workers int

	// The persistent submission path (Go/Wait). Workers start lazily on
	// the first Go and live until Close, so long-lived servers (rtadd) and
	// one-shot grids (cmd/experiments) share one pool implementation.
	mu   sync.Mutex
	jobs chan func()
	// live counts the running workers of the pool jobs feeds; each pool
	// gets its own, so a Go after Close never adds to one Close waits on.
	live *sync.WaitGroup
	next int64 // submission index, for deterministic first-error reporting
	wg   sync.WaitGroup

	errMu  sync.Mutex
	err    error
	errSeq int64
}

// NewFleet returns a fleet of the given width; workers <= 0 sizes it to
// runtime.GOMAXPROCS(0).
func NewFleet(workers int) *Fleet {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Fleet{workers: workers}
}

// Workers reports the pool width.
func (f *Fleet) Workers() int { return f.workers }

// Go submits one job to the worker pool, starting the workers on first
// use. Jobs run concurrently up to the fleet width; a submission beyond
// width+queue blocks until a worker frees up — the natural admission
// queue for servers that bound in-flight work upstream (see
// internal/serve). Every submitted job runs regardless of other jobs'
// failures; the first error in *submission order* is reported by the next
// Wait, keeping error reporting deterministic under concurrency.
func (f *Fleet) Go(fn func() error) {
	f.mu.Lock()
	if f.jobs == nil {
		// Workers range over a captured local, not the f.jobs field: an
		// idle worker that never received a job has no happens-before edge
		// with a later Close, so a field read here would race its nil-ing.
		ch, live := make(chan func(), f.workers), new(sync.WaitGroup)
		f.jobs, f.live = ch, live
		live.Add(f.workers)
		for k := 0; k < f.workers; k++ {
			go func() {
				defer live.Done()
				for job := range ch {
					job()
				}
			}()
		}
	}
	seq := f.next
	f.next++
	jobs := f.jobs
	f.mu.Unlock()

	f.wg.Add(1)
	jobs <- func() {
		defer f.wg.Done()
		if err := fn(); err != nil {
			f.errMu.Lock()
			if f.err == nil || seq < f.errSeq {
				f.err, f.errSeq = err, seq
			}
			f.errMu.Unlock()
		}
	}
}

// Wait blocks until every job submitted so far has finished and returns
// the error of the earliest-submitted failing job (nil if all succeeded),
// clearing it for the next batch. One logical stream of work at a time:
// interleaving Go/Wait batches from multiple goroutines gives each Wait an
// arbitrary batch boundary, though every job still runs exactly once.
func (f *Fleet) Wait() error {
	f.wg.Wait()
	f.errMu.Lock()
	err := f.err
	f.err = nil
	f.errMu.Unlock()
	return err
}

// Close stops the worker goroutines and returns once they have exited,
// after every job already submitted has run. It must not be called from a
// job. Go after Close restarts the pool; a nil or never-used fleet is a
// no-op.
func (f *Fleet) Close() {
	f.mu.Lock()
	jobs, live := f.jobs, f.live
	f.jobs, f.live = nil, nil
	f.mu.Unlock()
	if jobs != nil {
		close(jobs)
		live.Wait()
	}
}

// Run executes fn(0..n-1) across the worker pool and returns the
// lowest-index error (every index runs regardless of other indices'
// failures, keeping error reporting deterministic under concurrency). It
// is Go/Wait over the index range.
func (f *Fleet) Run(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		i := i
		f.Go(func() error { return fn(i) })
	}
	return f.Wait()
}
