package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// ELMConfig sizes the Extreme Learning Machine. The model consumes a window
// of class IDs: the first Window-1 entries are the input context and the
// final entry is the prediction target, so a single IGM vector carries both.
type ELMConfig struct {
	Window int // total window length (inputs = Window-1)
	Vocab  int // class alphabet size
	Hidden int // hidden layer width
	Ridge  float64
	Seed   int64
}

// DefaultELMConfig matches the RTAD deployment: syscall windows of nine
// events over a 32-service alphabet, 80 hidden units (five 16-lane hidden
// slices — one per ML-MIAOW compute unit).
func DefaultELMConfig() ELMConfig {
	return ELMConfig{Window: 9, Vocab: 32, Hidden: 80, Ridge: 1e-2, Seed: 1}
}

// ELM is a trained model: a fixed random input expansion (W1, B1) and a
// ridge-regressed linear readout (BetaT) predicting the next class.
type ELM struct {
	Cfg   ELMConfig
	W1    *Mat      // Hidden × (Window-1)·Vocab, random, frozen
	B1    []float64 // Hidden
	BetaT *Mat      // Vocab × Hidden (readout, transposed for MulVec)
	// Threshold is the anomaly decision level on the margin score,
	// calibrated on normal traces (see CalibrateThreshold).
	Threshold float64
}

// validateWindow checks a window against the model shape.
func validateWindow(cfg ELMConfig, w []int32) error {
	if len(w) != cfg.Window {
		return fmt.Errorf("ml: window length %d, want %d", len(w), cfg.Window)
	}
	for _, c := range w {
		if c < 0 || int(c) >= cfg.Vocab {
			return fmt.Errorf("ml: class %d outside vocab %d", c, cfg.Vocab)
		}
	}
	return nil
}

// Hidden computes the hidden activation for the window's input part. The
// input encoding is positional one-hot, so the matvec degenerates to a
// gather-accumulate over W1 columns — the same access pattern the GPU
// kernel uses.
func (m *ELM) Hidden(w []int32) []float64 {
	h := make([]float64, m.Cfg.Hidden)
	copy(h, m.B1)
	for j := 0; j < m.Cfg.Window-1; j++ {
		col := j*m.Cfg.Vocab + int(w[j])
		for r := 0; r < m.Cfg.Hidden; r++ {
			h[r] += m.W1.At(r, col)
		}
	}
	for r := range h {
		h[r] = Sigmoid(h[r])
	}
	return h
}

// Logits returns the class scores for the window's input part.
func (m *ELM) Logits(w []int32) []float64 {
	return m.BetaT.MulVec(m.Hidden(w))
}

// Score returns the anomaly margin for a full window: the gap between the
// best class score and the score of the class that actually occurred. A
// model that anticipated the event scores near zero; a surprised model
// scores high. The margin is monotone in the softmax NLL but needs no
// exponentials, which is what lets the GPU kernel compute it exactly.
func (m *ELM) Score(w []int32) float64 {
	logits := m.Logits(w)
	target := w[m.Cfg.Window-1]
	best := logits[0]
	for _, v := range logits[1:] {
		if v > best {
			best = v
		}
	}
	return best - logits[target]
}

// TrainELM fits the readout on normal windows: the random expansion is
// frozen and Beta solves the ridge-regularised least-squares problem
// (HᵀH + λI)·Beta = Hᵀ·T against one-hot next-class targets — the
// closed-form training that makes ELMs "more lightweight than a
// traditional MLP" (§IV-C).
func TrainELM(cfg ELMConfig, windows [][]int32) (*ELM, error) {
	if cfg.Window < 2 || cfg.Vocab < 2 || cfg.Hidden < 1 {
		return nil, fmt.Errorf("ml: bad ELM config %+v", cfg)
	}
	if len(windows) < cfg.Hidden {
		return nil, fmt.Errorf("ml: %d training windows for %d hidden units — underdetermined", len(windows), cfg.Hidden)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &ELM{
		Cfg: cfg,
		W1:  NewMat(cfg.Hidden, (cfg.Window-1)*cfg.Vocab),
		B1:  make([]float64, cfg.Hidden),
	}
	// Scale the random expansion so pre-activations land in the sigmoid's
	// useful range given Window-1 active inputs.
	m.W1.Randomize(rng, 1.2)
	for i := range m.B1 {
		m.B1[i] = (rng.Float64()*2 - 1) * 0.5
	}

	h := NewMat(len(windows), cfg.Hidden)
	targets := NewMat(len(windows), cfg.Vocab)
	for n, w := range windows {
		if err := validateWindow(cfg, w); err != nil {
			return nil, err
		}
		copy(h.Row(n), m.Hidden(w))
		targets.Set(n, int(w[cfg.Window-1]), 1)
	}
	gram := TransposeMul(h, h)
	rhs := TransposeMul(h, targets)
	beta, err := CholeskySolve(gram, rhs, cfg.Ridge)
	if err != nil {
		return nil, fmt.Errorf("ml: ELM solve: %w", err)
	}
	// beta is Hidden × Vocab; store the transpose for row-major readout.
	m.BetaT = NewMat(cfg.Vocab, cfg.Hidden)
	for r := 0; r < beta.Rows; r++ {
		for c := 0; c < beta.Cols; c++ {
			m.BetaT.Set(c, r, beta.At(r, c))
		}
	}
	return m, nil
}

// CalibrateThreshold picks a decision level from normal-trace scores: the
// given quantile plus a safety margin. quantile=1 uses the maximum.
func CalibrateThreshold(scores []float64, quantile, margin float64) float64 {
	if len(scores) == 0 {
		return margin
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	idx := int(quantile*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx] + margin
}
