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
// The model kind, parameter views and state addresses are explicit fields
// (rather than closures) so the cross-instance GroupRunner can gather each
// member's state, run one shared-weight matmul, and scatter results back.
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

// step runs one native inference over the quantised input, updating the
// canonical device-memory state exactly as the kernels would.
func (n *nativeBackend) step(in []uint32) Judgment {
	mem := n.mem
	if e := n.elm; e != nil {
		copy(mem[ELMIn:ELMIn+ELMWindow], in)
		margin := e.params.MarginQ(in)
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
	margin := l.params.StepQ(l.h, l.c, in)
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
	return n.step(n.inBuf), n.cycles, nil
}

// InferBatch advances this backend's own stream by len(windows) steps. For
// the ELM the margins are state-independent, so one MarginBatchQ matmul
// computes them all before the EWMA chain folds them in order; the LSTM's
// consecutive steps chain through h/c and must run sequentially (the
// matmul pays off across sessions — see GroupRunner).
func (n *nativeBackend) InferBatch(windows [][]int32) ([]Judgment, []int64, error) {
	if n.elm == nil {
		return InferLoop(n, windows)
	}
	nw := len(windows)
	block := make([]uint32, nw*ELMWindow)
	for i, w := range windows {
		if err := n.quantInto(block[i*ELMWindow:(i+1)*ELMWindow], w); err != nil {
			return nil, nil, fmt.Errorf("kernels: batch window %d: %w", i, err)
		}
	}
	margins := make([]int32, nw)
	n.elm.params.MarginBatchQ(block, nw, margins)
	js := make([]Judgment, nw)
	costs := make([]int64, nw)
	mem := n.mem
	for i := 0; i < nw; i++ {
		copy(mem[ELMIn:ELMIn+ELMWindow], block[i*ELMWindow:(i+1)*ELMWindow])
		ewma := ml.EwmaStepQ(int32(mem[ELMEwma]), margins[i], n.alphaQ)
		mem[ELMEwma] = uint32(ewma)
		js[i] = Judgment{Anomaly: ewma > n.thrQ, MarginQ: margins[i], EwmaQ: ewma}
		writeOut(mem[ELMOut:], js[i])
		costs[i] = n.cycles
	}
	return js, costs, nil
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
