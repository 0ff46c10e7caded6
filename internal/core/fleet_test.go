package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
