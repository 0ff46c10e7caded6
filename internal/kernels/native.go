package kernels

import (
	"fmt"

	"rtad/internal/ml"
)

// nativeBackend runs the shared fixed-point forward pass (internal/ml)
// instead of interpreting the GPU kernels. All model parameters and scoring
// state stay at the canonical device-memory addresses — the input vector,
// the recurrent LSTM state, the EWMA word and the Out triple — so a native
// step and a GPU step are indistinguishable afterwards.
//
// Timing comes from the calibration table: deployed kernels cost the same
// cycles for every input (the loop bounds and branch pattern are fixed per
// wave), so replaying the recorded per-(model, window, CUs) cost keeps the
// MCM WAIT_DONE timeline — and hence FIFO occupancy, drops and the whole
// judgment stream — bit-identical to the GPU backend. The cost is looked
// up (calibrating the shape if the table lacks it) once, at construction.
//
// The model kind and parameter views are explicit fields (rather than
// closures) so the cross-instance GroupRunner can group members by model
// and run them all on one member's view.
type nativeBackend struct {
	model  string // "elm" | "lstm", for error messages
	cycles int64  // calibrated per-inference cost
	win    int
	mem    []uint32 // the backend's device memory (params + state)

	alphaQ int32
	thrQ   int32

	// Exactly one of elm/lstm is non-nil.
	elm  *elmNative
	lstm *lstmNative

	inBuf []uint32 // quantised-window scratch, one inference at a time
}

type elmNative struct {
	model  *ml.ELM
	params *ml.ELMParamsQ
}

type lstmNative struct {
	model  *ml.LSTM
	params *ml.LSTMParamsQ
	h, c   []int32 // single-step scratch mirroring mem[LSTMH/LSTMC]
}

func (n *nativeBackend) Name() string { return BackendNativeCalibrated }

func (n *nativeBackend) Window() int { return n.win }

// quantInto validates and quantises window into dst (win words), the
// allocation-free core of the engines' InputWords.
func (n *nativeBackend) quantInto(dst []uint32, window []int32) error {
	if len(window) != n.win {
		return fmt.Errorf("kernels: %s window length %d, want %d", n.model, len(window), n.win)
	}
	vocab := int32(ELMVocab)
	if n.lstm != nil {
		vocab = LSTMVocab
	}
	for i, c := range window {
		if c < 0 || c >= vocab {
			return fmt.Errorf("kernels: class %d outside %s vocab", c, n.model)
		}
		dst[i] = uint32(c)
	}
	return nil
}

// quantBatch validates and quantises windows into dst (len(windows)*win
// words), failing on the first bad window before anything runs.
func (n *nativeBackend) quantBatch(dst []uint32, windows [][]int32) error {
	for t, w := range windows {
		if err := n.quantInto(dst[t*n.win:(t+1)*n.win], w); err != nil {
			return fmt.Errorf("kernels: batch window %d: %w", t, err)
		}
	}
	return nil
}

// step runs one native inference over the quantised input on view's
// parameters — n's own, or in a GroupRunner pass those of another member
// deployed from the same model — and updates n's canonical device-memory
// state exactly as the kernels would.
func (n *nativeBackend) step(view *nativeBackend, in []uint32) Judgment {
	mem := n.mem
	if n.elm != nil {
		copy(mem[ELMIn:ELMIn+ELMWindow], in)
		margin := view.elm.params.MarginQ(in)
		ewma := ml.EwmaStepQ(int32(mem[ELMEwma]), margin, n.alphaQ)
		mem[ELMEwma] = uint32(ewma)
		j := Judgment{Anomaly: ewma > n.thrQ, MarginQ: margin, EwmaQ: ewma}
		writeOut(mem[ELMOut:], j)
		return j
	}
	l := n.lstm
	copy(mem[LSTMIn:LSTMIn+LSTMWindow], in)
	for i := 0; i < LSTMHidden; i++ {
		l.h[i] = int32(mem[LSTMH+i])
		l.c[i] = int32(mem[LSTMC+i])
	}
	margin := view.lstm.params.StepQ(l.h, l.c, in)
	for i := 0; i < LSTMHidden; i++ {
		mem[LSTMH+i] = uint32(l.h[i])
		mem[LSTMC+i] = uint32(l.c[i])
	}
	ewma := ml.EwmaStepQ(int32(mem[LSTMEwma]), margin, n.alphaQ)
	mem[LSTMEwma] = uint32(ewma)
	j := Judgment{Anomaly: ewma > n.thrQ, MarginQ: margin, EwmaQ: ewma}
	writeOut(mem[LSTMOut:], j)
	return j
}

// FixedCost implements FixedCoster: every inference replays the cost
// calibrated at construction.
func (n *nativeBackend) FixedCost() (int64, bool) { return n.cycles, true }

func (n *nativeBackend) Infer(window []int32) (Judgment, int64, error) {
	if err := n.quantInto(n.inBuf, window); err != nil {
		return Judgment{}, 0, err
	}
	return n.step(n, n.inBuf), n.cycles, nil
}

// InferBatch advances this backend's own stream by len(windows) steps,
// one Infer each: consecutive steps share nothing a second kernel could
// amortise (the LSTM's chain through h/c, and the ELM's margins cost the
// same one window at a time). Sharing pays across sessions — see
// GroupRunner.
func (n *nativeBackend) InferBatch(windows [][]int32) ([]Judgment, []int64, error) {
	return InferLoop(n, windows)
}

func newNativeBackend(s Spec) (Backend, error) {
	model, win, err := s.kind()
	if err != nil {
		return nil, err
	}
	if s.Dev == nil {
		return nil, fmt.Errorf("kernels: %s backend needs a device", BackendNativeCalibrated)
	}
	// The GPU engine constructor writes the quantised model image into the
	// device memory the native path then reads and updates.
	eng, err := newGPUBackend(Spec{Dev: s.Dev, ELM: s.ELM, LSTM: s.LSTM})
	if err != nil {
		return nil, err
	}
	calib := s.Calibration
	if calib == nil {
		calib = NewCalibration()
	}
	// One-time pass on a scratch device: the hot path never simulates.
	if s.ELM != nil {
		err = calib.CalibrateELM(s.ELM, s.Dev.NumCU)
	} else {
		err = calib.CalibrateLSTM(s.LSTM, s.Dev.NumCU)
	}
	if err != nil {
		return nil, err
	}
	cycles, _ := calib.Lookup(CalKey{Model: model, Window: win, CUs: s.Dev.NumCU})
	n := &nativeBackend{
		model:  model,
		cycles: cycles,
		win:    win,
		mem:    s.Dev.Mem,
		inBuf:  make([]uint32, win),
	}
	switch e := eng.(type) {
	case *ELMEngine:
		n.alphaQ, n.thrQ = e.alphaQ, e.thrQ
		n.elm = &elmNative{model: e.Model, params: ELMParamsView(n.mem)}
	case *LSTMEngine:
		n.alphaQ, n.thrQ = e.alphaQ, e.thrQ
		n.lstm = &lstmNative{
			model:  e.Model,
			params: LSTMParamsView(n.mem),
			h:      make([]int32, LSTMHidden),
			c:      make([]int32, LSTMHidden),
		}
	}
	return n, nil
}

// writeOut mirrors the kernels' judgment stores so the MCM RX engine reads
// the same words whichever path produced them.
func writeOut(out []uint32, j Judgment) {
	out[0] = 0
	if j.Anomaly {
		out[0] = 1
	}
	out[1] = uint32(j.MarginQ)
	out[2] = uint32(j.EwmaQ)
}
