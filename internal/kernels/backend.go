package kernels

import (
	"fmt"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// Backend names accepted by NewBackend (and the CLIs' -backend flag).
const (
	// BackendGPU is the cycle-accurate ML-MIAOW simulation: every
	// inference interprets the kernels wavefront-by-wavefront. Timing and
	// judgments are the ground truth the native backend is validated
	// against.
	BackendGPU = "gpu"
	// BackendNativeCalibrated runs the shared fixed-point forward pass in
	// Go — bit-identical judgments without interpreting a single GPU
	// instruction. Its constructor runs the one-time GPU calibration pass
	// for its (model, window, CUs) shape on a scratch device, recording
	// into the spec's shared *Calibration when one is given, so every
	// inference replays the recorded cycle cost and the GPU sim never runs
	// on the hot path.
	BackendNativeCalibrated = "native-calibrated"
	// DefaultBackend is what NewBackend builds for an empty name.
	DefaultBackend = BackendGPU
)

// Backend is the pluggable inference engine the MCM drives: one deployed
// model, persistent scoring state, and a per-inference cycle cost for the
// WAIT_DONE phase. All backends of one model must produce bit-identical
// judgment streams; they may differ only in how the cycle cost is obtained
// (simulated vs replayed) and how fast the host computes it.
type Backend interface {
	// Name is the backend name NewBackend built it under.
	Name() string
	// Window is the input-vector length the engine consumes.
	Window() int
	// Infer runs one inference and returns the judgment plus the engine
	// cycles the MCM waits out in WAIT_DONE.
	Infer(window []int32) (Judgment, int64, error)
	// InferBatch runs len(windows) consecutive inferences on this
	// backend's judgment stream, exactly equivalent to calling Infer once
	// per window in order: same judgments, same per-vector cycle charges,
	// same persistent state afterwards. Backends with a batched kernel
	// amortise the state-independent arithmetic; others loop (InferLoop).
	// A batch that fails validation may leave the stream less advanced
	// than the equivalent Infer sequence would at the failing window.
	// Returned slices are only valid until the next call on this backend.
	InferBatch(windows [][]int32) ([]Judgment, []int64, error)
}

// FixedCoster is the optional contract behind deferred judgment: a backend
// whose per-inference cycle cost is a known constant reports it here
// BEFORE running the inference. The MCM can then compute a vector's full
// WAIT_DONE timeline — and hence FIFO admission of everything behind it —
// at push time and postpone the arithmetic itself, which is what lets the
// serving layer coalesce a whole trace chunk into one InferBatch call.
// The native backend qualifies (deployed kernels cost the same cycles for
// every input, calibrated at construction); the cycle-accurate GPU sim
// does not, because it must run to know its timing. Wrappers forward the
// wrapped engine's answer, so ok is false over an engine without one.
type FixedCoster interface {
	FixedCost() (cycles int64, ok bool)
}

// InferLoop is the reference InferBatch: one Infer per window, in order.
// It is the fallback for backends without a batched kernel (the
// cycle-accurate GPU sim steps its pipeline model per dispatch and cannot
// fuse inferences) and the semantic yardstick the batched paths are tested
// against.
func InferLoop(b Backend, windows [][]int32) ([]Judgment, []int64, error) {
	js := make([]Judgment, len(windows))
	cycles := make([]int64, len(windows))
	for i, w := range windows {
		j, cyc, err := b.Infer(w)
		if err != nil {
			return nil, nil, fmt.Errorf("kernels: batch window %d: %w", i, err)
		}
		js[i] = j
		cycles[i] = cyc
	}
	return js, cycles, nil
}

// Spec carries everything NewBackend needs: the device whose memory
// holds (or will hold) the quantised model image and scoring state, and
// exactly one trained model.
type Spec struct {
	Dev  *gpu.Device
	ELM  *ml.ELM
	LSTM *ml.LSTM
	// Calibration, when non-nil, is a shared cycle-cost table for the
	// native backend; nil lets the backend own a private table.
	Calibration *Calibration
}

func (s Spec) kind() (model string, window int, err error) {
	switch {
	case s.ELM != nil && s.LSTM == nil:
		return "elm", ELMWindow, nil
	case s.LSTM != nil && s.ELM == nil:
		return "lstm", LSTMWindow, nil
	}
	return "", 0, fmt.Errorf("kernels: backend spec must carry exactly one model")
}

// NewBackend builds the named backend over spec; an empty name picks
// DefaultBackend. It is the one place backend names are checked.
func NewBackend(name string, spec Spec) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	switch name {
	case BackendGPU:
		return newGPUBackend(spec)
	case BackendNativeCalibrated:
		return newNativeBackend(spec)
	}
	return nil, fmt.Errorf("kernels: unknown backend %q (want %s or %s)", name, BackendGPU, BackendNativeCalibrated)
}

func newGPUBackend(s Spec) (Backend, error) {
	if _, _, err := s.kind(); err != nil {
		return nil, err
	}
	if s.Dev == nil {
		return nil, fmt.Errorf("kernels: %s backend needs a device", BackendGPU)
	}
	if s.ELM != nil {
		return NewELMEngine(s.Dev, s.ELM)
	}
	return NewLSTMEngine(s.Dev, s.LSTM)
}
