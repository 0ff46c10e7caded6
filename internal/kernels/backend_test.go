package kernels

import (
	"testing"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// checkStreamsIdentical drives both backends through the same window
// stream and requires bit-identical judgments and cycle counts at every
// step — the contract every backend of one model must honour.
func checkStreamsIdentical(t *testing.T, ref, got Backend, windows [][]int32) {
	t.Helper()
	for i, w := range windows {
		jr, cr, err := ref.Infer(w)
		if err != nil {
			t.Fatalf("window %d: %s: %v", i, ref.Name(), err)
		}
		jg, cg, err := got.Infer(w)
		if err != nil {
			t.Fatalf("window %d: %s: %v", i, got.Name(), err)
		}
		if jr != jg {
			t.Fatalf("window %d: %s judgment %+v != %s judgment %+v", i, got.Name(), jg, ref.Name(), jr)
		}
		if cr != cg {
			t.Fatalf("window %d: %s cycles %d != %s cycles %d", i, got.Name(), cg, ref.Name(), cr)
		}
	}
}

func elmSpec(model *ml.ELM, cus int, c *Calibration) Spec {
	return Spec{Dev: gpu.NewDevice(ELMMemEnd, cus), ELM: model, Calibration: c}
}

func lstmSpec(model *ml.LSTM, cus int, c *Calibration) Spec {
	return Spec{Dev: gpu.NewDevice(LSTMMemEnd, cus), LSTM: model, Calibration: c}
}

func TestNativeBackendsBitIdenticalELM(t *testing.T) {
	model := trainELM(t)
	windows := markovWindows(ELMVocab, ELMWindow, 60, 123)
	for _, cus := range []int{1, 5} {
		ref, err := NewBackend(BackendGPU, elmSpec(model, cus, nil))
		if err != nil {
			t.Fatal(err)
		}
		nat, err := NewBackend(BackendNativeCalibrated, elmSpec(model, cus, NewCalibration()))
		if err != nil {
			t.Fatal(err)
		}
		checkStreamsIdentical(t, ref, nat, windows)
	}
}

func TestNativeBackendsBitIdenticalLSTM(t *testing.T) {
	model := trainLSTM(t)
	windows := markovWindows(LSTMVocab, LSTMWindow, 60, 321)
	for _, cus := range []int{1, 5} {
		ref, err := NewBackend(BackendGPU, lstmSpec(model, cus, nil))
		if err != nil {
			t.Fatal(err)
		}
		nat, err := NewBackend(BackendNativeCalibrated, lstmSpec(model, cus, NewCalibration()))
		if err != nil {
			t.Fatal(err)
		}
		checkStreamsIdentical(t, ref, nat, windows)
	}
}

// TestNativeBackendBitIdenticalUnderTrim repeats the cross-validation on
// coverage-trimmed devices: the native compute path never touches the
// interpreter, and the cost it calibrated on an untrimmed scratch device
// must match the trimmed reference's cycles.
func TestNativeBackendBitIdenticalUnderTrim(t *testing.T) {
	elm := trainELM(t)
	lstm := trainLSTM(t)

	// Steps 1–2 of the trimming flow: record block coverage per model.
	cover := func(spec Spec, windows [][]int32) gpu.CoverageSet {
		spec.Dev.EnableCoverage()
		eng, err := NewBackend(BackendGPU, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			if _, _, err := eng.Infer(w); err != nil {
				t.Fatal(err)
			}
		}
		return spec.Dev.Coverage()
	}
	elmWindows := markovWindows(ELMVocab, ELMWindow, 40, 77)
	lstmWindows := markovWindows(LSTMVocab, LSTMWindow, 40, 78)
	elmKeep := cover(elmSpec(elm, 1, nil), elmWindows)
	lstmKeep := cover(lstmSpec(lstm, 1, nil), lstmWindows)

	run := func(keep gpu.CoverageSet, spec func(*Calibration) Spec, windows [][]int32) {
		refSpec := spec(nil)
		refSpec.Dev.SetTrim(keep)
		ref, err := NewBackend(BackendGPU, refSpec)
		if err != nil {
			t.Fatal(err)
		}
		natSpec := spec(NewCalibration())
		natSpec.Dev.SetTrim(keep)
		nat, err := NewBackend(BackendNativeCalibrated, natSpec)
		if err != nil {
			t.Fatal(err)
		}
		checkStreamsIdentical(t, ref, nat, windows)
	}
	run(elmKeep, func(c *Calibration) Spec { return elmSpec(elm, 1, c) }, elmWindows)
	run(lstmKeep, func(c *Calibration) Spec { return lstmSpec(lstm, 1, c) }, lstmWindows)
}

// TestNativeCalibratedEagerPass pins the calibrated backend's construction
// contract: the one-time GPU pass runs up front on a scratch device, the
// recorded cost equals the real engine's, and the table is shared.
func TestNativeCalibratedEagerPass(t *testing.T) {
	model := trainELM(t)
	shared := NewCalibration()
	if _, err := NewBackend(BackendNativeCalibrated, elmSpec(model, 5, shared)); err != nil {
		t.Fatal(err)
	}
	key := CalKey{Model: "elm", Window: ELMWindow, CUs: 5}
	cyc, ok := shared.Lookup(key)
	if !ok {
		t.Fatalf("calibration table missing %+v after construction", key)
	}
	ref, err := NewBackend(BackendGPU, elmSpec(model, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ref.Infer(make([]int32, ELMWindow))
	if err != nil {
		t.Fatal(err)
	}
	if cyc != want {
		t.Fatalf("calibrated cycles %d, cycle-accurate engine reports %d", cyc, want)
	}
}

// TestBackendRegistry pins NewBackend's name table: an empty name builds
// DefaultBackend, and unknown names and model-less specs are rejected.
func TestBackendRegistry(t *testing.T) {
	model := trainELM(t)
	b, err := NewBackend("", elmSpec(model, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != DefaultBackend {
		t.Fatalf("empty backend name built %q, want default %q", b.Name(), DefaultBackend)
	}
	if _, err := NewBackend("no-such-backend", elmSpec(model, 1, nil)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := NewBackend(BackendNativeCalibrated, Spec{Dev: gpu.NewDevice(ELMMemEnd, 1)}); err == nil {
		t.Fatal("spec without a model accepted")
	}
}
