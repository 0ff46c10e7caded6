package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFleetParallelSessionsShareDeployment is the race-audit enforcement
// test (run it under -race): eight sessions execute concurrently over ONE
// trained deployment — shared mapper, model weights, translation function
// and attack pool — and every run must come out identical to a serial run.
// Any mutation of Deployment state on the inference path shows up here as a
// data race or a diverging result.
func TestFleetParallelSessionsShareDeployment(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	cfg := PipelineConfig{CUs: 5, Stride: 512}
	spec := AttackSpec{Seed: 3}
	const instr = 1_500_000
	serial := detect(t, dep, cfg, spec, instr)

	const parallel = 8
	results := make([]*DetectionResult, parallel)
	err := NewFleet(parallel).Run(parallel, func(i int) error {
		var err error
		results[i], err = runDetect(dep, cfg, spec, instr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, serial) {
			t.Errorf("parallel run %d diverges from the serial run", i)
		}
	}
}

// TestFleetMixedJobsOrderAndErrors checks result ordering for heterogeneous
// jobs and deterministic (lowest-index) error reporting.
func TestFleetMixedJobsOrderAndErrors(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	cfgs := []PipelineConfig{{CUs: 1, Stride: 256}, {CUs: 5, Stride: 256}}
	results := make([]*DetectionResult, len(cfgs))
	err := NewFleet(2).Run(len(cfgs), func(i int) error {
		var err error
		results[i], err = runDetect(dep, cfgs[i], AttackSpec{Seed: 1}, 1_200_000)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].CUs != 1 || results[1].CUs != 5 {
		t.Errorf("results out of job order: CUs %d,%d", results[0].CUs, results[1].CUs)
	}

	wantErr := errors.New("boom")
	err = NewFleet(4).Run(10, func(i int) error {
		if i == 7 || i == 3 {
			return fmt.Errorf("job %d: %w", i, wantErr)
		}
		return nil
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("fleet error lost: %v", err)
	}
	if got := err.Error(); got != "job 3: boom" {
		t.Errorf("fleet reported %q, want the lowest-index failure", got)
	}
}

func TestFleetDefaults(t *testing.T) {
	if w := NewFleet(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("default width %d != GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := NewFleet(3).Workers(); w != 3 {
		t.Errorf("explicit width %d != 3", w)
	}
	if err := NewFleet(4).Run(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("empty fleet run errored: %v", err)
	}
}

// TestFleetCloseWaitsForWorkers: Close returns only after every submitted
// job has run and the pool's workers are gone, so right after it the
// goroutine count is back to its baseline, and Go after Close starts a new
// pool that runs jobs.
func TestFleetCloseWaitsForWorkers(t *testing.T) {
	base := exitedGoroutines()
	f := NewFleet(4)
	for round := 0; round < 2; round++ {
		var ran atomic.Int64
		if err := f.Run(16, func(int) error { ran.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 16 {
			t.Fatalf("round %d: %d of 16 jobs ran", round, got)
		}
		if n := runtime.NumGoroutine(); n < base+4 {
			t.Fatalf("round %d: %d goroutines with four workers up, %d before", round, n, base)
		}
		// A job still running when Close is called has finished by the
		// time Close returns.
		release := make(chan struct{})
		f.Go(func() error { <-release; ran.Add(1); return nil })
		close(release)
		f.Close()
		if got := ran.Load(); got != 17 {
			t.Fatalf("round %d: Close returned before the last job finished", round)
		}
		if n := exitedGoroutines(); n > base {
			t.Fatalf("round %d: %d goroutines after Close, %d before", round, n, base)
		}
	}
	f.Close() // closing a closed fleet is a no-op
}

// exitedGoroutines counts goroutines once those that have run their last
// deferred call have also exited, as a closed fleet's workers have when
// Close returns. With one P, each such goroutine, runnable anywhere, runs
// to its end before a yielding caller is scheduled again.
func exitedGoroutines() int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	return runtime.NumGoroutine()
}
