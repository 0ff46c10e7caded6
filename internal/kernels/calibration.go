package kernels

import (
	"sort"
	"sync"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// CalKey identifies one calibrated shape. The deployed kernels' cycle
// counts are input-independent (fixed loop bounds, fixed branch pattern per
// wave — TestELMLatencyConstantAcrossInputs pins this), so one GPU
// inference per (model, window, CUs) captures the exact per-inference cost
// and replaying it preserves the MCM timeline bit-for-bit.
type CalKey struct {
	Model  string `json:"model"` // "elm" | "lstm"
	Window int    `json:"window"`
	CUs    int    `json:"cus"`
}

// CalEntry is one recorded shape with its per-inference engine cycles.
type CalEntry struct {
	CalKey
	Cycles int64 `json:"cycles"`
}

// Calibration is a goroutine-safe cycle-cost table shared between native
// backends. A fleet typically builds one, runs the one-time GPU pass per
// deployed shape, and hands the same table to every pipeline.
type Calibration struct {
	mu      sync.RWMutex
	entries map[CalKey]int64
}

// NewCalibration returns an empty table.
func NewCalibration() *Calibration {
	return &Calibration{entries: map[CalKey]int64{}}
}

// Lookup returns the recorded cycles for key.
func (c *Calibration) Lookup(key CalKey) (int64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	cyc, ok := c.entries[key]
	return cyc, ok
}

// Record stores the cycle cost for key (last write wins).
func (c *Calibration) Record(key CalKey, cycles int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = cycles
}

// Len reports the number of calibrated shapes.
func (c *Calibration) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Entries returns the table sorted by model, window, CUs — the
// deterministic order embedded reports use.
func (c *Calibration) Entries() []CalEntry {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]CalEntry, 0, len(c.entries))
	for key, cyc := range c.entries {
		out = append(out, CalEntry{CalKey: key, Cycles: cyc})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		return a.CUs < b.CUs
	})
	return out
}

// CalibrateELM runs the one-time GPU pass for the deployed ELM at the
// given CU count: one cycle-accurate inference on a scratch device records
// the per-inference cost. Shapes already in the table are skipped.
func (c *Calibration) CalibrateELM(m *ml.ELM, cus int) error {
	key := CalKey{Model: "elm", Window: ELMWindow, CUs: cus}
	if _, ok := c.Lookup(key); ok {
		return nil
	}
	eng, err := NewELMEngine(gpu.NewDevice(ELMMemEnd, cus), m)
	if err != nil {
		return err
	}
	_, cyc, err := eng.Infer(make([]int32, ELMWindow))
	if err != nil {
		return err
	}
	c.Record(key, cyc)
	return nil
}

// CalibrateLSTM is CalibrateELM for the deployed LSTM shape.
func (c *Calibration) CalibrateLSTM(m *ml.LSTM, cus int) error {
	key := CalKey{Model: "lstm", Window: LSTMWindow, CUs: cus}
	if _, ok := c.Lookup(key); ok {
		return nil
	}
	eng, err := NewLSTMEngine(gpu.NewDevice(LSTMMemEnd, cus), m)
	if err != nil {
		return err
	}
	_, cyc, err := eng.Infer(make([]int32, LSTMWindow))
	if err != nil {
		return err
	}
	c.Record(key, cyc)
	return nil
}
