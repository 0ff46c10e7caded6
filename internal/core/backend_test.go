package core

import (
	"reflect"
	"testing"

	"rtad/internal/kernels"
)

// runJudged runs one streaming detection session to completion and returns
// the full judged stream. Comparing whole streams element-by-element (every
// vector, every judgment, every timestamp) is the strongest session-level
// backend-equivalence check: a single cycle of divergence anywhere in the
// pipeline shows up.
func runJudged(t *testing.T, dep *Deployment, cfg PipelineConfig, aspec AttackSpec, instr int64) []Judged {
	t.Helper()
	s, err := Open(Deployments{dep}, WithConfig(cfg), WithAttack(aspec.Resolve(instr)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(instr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s.Results()
}

func checkJudgedEqual(t *testing.T, backend string, got, want []Judged) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("reference run produced no judgments")
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d judgments, gpu reference %d", backend, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: judgment %d diverges:\n  got  %+v\n  want %+v", backend, i, got[i], want[i])
		}
	}
}

func TestSessionBackendsBitIdenticalLSTM(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	aspec := AttackSpec{Seed: 1}
	const instr = 2_000_000
	for _, cus := range []int{1, 5} {
		ref := runJudged(t, dep, PipelineConfig{CUs: cus}, aspec, instr)
		got := runJudged(t, dep, PipelineConfig{CUs: cus, Backend: kernels.BackendNativeCalibrated}, aspec, instr)
		checkJudgedEqual(t, kernels.BackendNativeCalibrated, got, ref)
	}
}

func TestSessionBackendsBitIdenticalELM(t *testing.T) {
	dep := trainELMDeployment(t, "400.perlbench")
	aspec := AttackSpec{BurstLen: 4096, Seed: 1}
	const instr = 4_000_000
	ref := runJudged(t, dep, PipelineConfig{CUs: 5}, aspec, instr)
	got := runJudged(t, dep, PipelineConfig{CUs: 5, Backend: kernels.BackendNativeCalibrated}, aspec, instr)
	checkJudgedEqual(t, kernels.BackendNativeCalibrated, got, ref)
}

// TestSessionBackendSharedCalibration reuses one calibration table across
// sessions: the second session must skip the GPU pass entirely (the table
// already holds its shape) and still reproduce the reference stream.
func TestSessionBackendSharedCalibration(t *testing.T) {
	dep := trainLSTMDeployment(t, "456.hmmer")
	aspec := AttackSpec{Seed: 2}
	const instr = 1_500_000
	ref := runJudged(t, dep, PipelineConfig{CUs: 5}, aspec, instr)

	calib := kernels.NewCalibration()
	cfg := PipelineConfig{CUs: 5, Backend: kernels.BackendNativeCalibrated, Calibration: calib}
	first := runJudged(t, dep, cfg, aspec, instr)
	checkJudgedEqual(t, "native-calibrated (cold table)", first, ref)
	if calib.Len() != 1 {
		t.Fatalf("table holds %d shapes after one LSTM session, want 1", calib.Len())
	}
	entries := calib.Entries()
	second := runJudged(t, dep, cfg, aspec, instr)
	checkJudgedEqual(t, "native-calibrated (warm table)", second, ref)
	if !reflect.DeepEqual(calib.Entries(), entries) {
		t.Error("warm run altered the calibration table")
	}
}

// TestDualSessionBackendsBitIdentical checks backend equivalence where the
// contention model is most intertwined with timing: both models sharing one
// engine.
func TestDualSessionBackendsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-session runs are heavy")
	}
	elm := trainELMDeployment(t, "458.sjeng")
	lstm := trainLSTMDeployment(t, "458.sjeng")
	aspec := AttackSpec{Seed: 5}
	const instr = 8_000_000

	runDual := func(cfg PipelineConfig) (elmJ, lstmJ []Judged) {
		t.Helper()
		s, err := Open(Deployments{elm, lstm}, WithConfig(cfg), WithAttack(aspec.Resolve(instr)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(instr); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s.LaneResults(0), s.LaneResults(1)
	}

	refELM, refLSTM := runDual(PipelineConfig{CUs: 5})
	natELM, natLSTM := runDual(PipelineConfig{CUs: 5, Backend: kernels.BackendNativeCalibrated})
	checkJudgedEqual(t, "dual native (elm lane)", natELM, refELM)
	checkJudgedEqual(t, "dual native (lstm lane)", natLSTM, refLSTM)
}
