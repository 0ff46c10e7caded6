// Package core integrates the RTAD MPSoC (Fig 1): the host CPU running a
// monitored workload, the CoreSight PTM/TPIU trace path, IGM, MCM and the
// ML-MIAOW inference engine, wired end to end with consistent simulated
// time. It provides the deployment flow of §III-C — collect normal traces,
// train a model, configure the IGM tables, load the model into engine
// memory — and the measurement harnesses behind Figs 6–8.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rtad/internal/attack"
	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/isa"
	"rtad/internal/kernels"
	"rtad/internal/ml"
	"rtad/internal/workload"
)

// ModelKind selects the deployed detector.
type ModelKind uint8

// Detector kinds (§IV-C).
const (
	ModelELM ModelKind = iota
	ModelLSTM
)

// String names the kind.
func (k ModelKind) String() string {
	if k == ModelELM {
		return "ELM"
	}
	return "LSTM"
}

// TrainConfig parameterises the offline phase.
type TrainConfig struct {
	Profile workload.Profile
	Kind    ModelKind
	// TrainInstr is the instruction budget of the normal-trace collection
	// run (§III-C: "running the target application in advance and
	// extracting the branch traces").
	TrainInstr int64
	// TrainStride paces the LSTM training vectors (denser than the
	// runtime stride so the trainer sees enough sequence).
	TrainStride int
	// CalibFraction of the collected windows is held out for threshold
	// calibration.
	CalibFraction float64
	// ThresholdMargin is added above the calibration quantile.
	ThresholdMargin float64
}

// DefaultTrainConfig returns the budgets used throughout the evaluation.
func DefaultTrainConfig(p workload.Profile, kind ModelKind) TrainConfig {
	cfg := TrainConfig{
		Profile: p, Kind: kind,
		TrainStride:     64,
		CalibFraction:   0.2,
		ThresholdMargin: 0.05,
	}
	if kind == ModelELM {
		// Syscalls are sparse: a long run is needed to gather enough
		// windows for the ridge solve.
		cfg.TrainInstr = 30_000_000
	} else {
		cfg.TrainInstr = 2_500_000
	}
	return cfg
}

// Deployment is a trained detector bound to one benchmark: the model, the
// IGM table configuration, and the legitimate-event pool used by the attack
// emulation.
type Deployment struct {
	Profile workload.Profile
	Kind    ModelKind
	Mapper  *igm.AddressMap
	// Translate is the MCM protocol-converter mapping from IGM class IDs
	// to the model alphabet.
	Translate func(int32) int32
	ELM       *ml.ELM
	LSTM      *ml.LSTM
	// Pool holds every taken transfer of the training run, the legitimate
	// events the attack emulation replays.
	Pool *attack.Pool
	// TrainWindows reports how many windows the model was fitted on.
	TrainWindows int

	// victimOnce memoizes the generated victim binary and the basic-block
	// translation cache built over it, so every session opened against this
	// deployment executes the same immutable image and shares one lazily
	// filled cache — each block translates once per deployment, not once
	// per session. Sharing is lock-free and race-free (see cpu.Cache).
	victimOnce  sync.Once
	victimProg  *isa.Program
	victimCache *cpu.Cache
	victimErr   error

	// refs counts live holds on this deployment: registry versions plus the
	// sessions admitted on them. The deployment's data is immutable during
	// inference — the count never gates reads — it only tells a lifecycle
	// manager (internal/registry) when a retired version's memory, including
	// the shared translation cache above, can actually be let go.
	refs atomic.Int64
}

// Retain records one live hold on the deployment (a registry version, an
// admitted session). Pair with Release.
func (d *Deployment) Retain() { d.refs.Add(1) }

// Release drops one hold and returns the holds remaining. Releasing below
// zero panics: it means a session released a deployment it never retained,
// which would let a lifecycle manager free memory still in use.
func (d *Deployment) Release() int64 {
	n := d.refs.Add(-1)
	if n < 0 {
		panic("core: Deployment.Release without a matching Retain")
	}
	return n
}

// Refs reports the current hold count.
func (d *Deployment) Refs() int64 { return d.refs.Load() }

// Fingerprint is the deployment's content identity: a 64-bit hash over the
// model kind, the trained weight image (ml fingerprints), and the IGM
// lookup table. Two deployments fingerprint equal exactly when they would
// judge identically; the registry uses this to recognise a re-loaded file
// as a version it already serves.
func (d *Deployment) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= uint64(byte(w >> i))
			h *= prime
		}
	}
	mix(uint64(d.Kind))
	switch {
	case d.ELM != nil:
		mix(d.ELM.Fingerprint())
	case d.LSTM != nil:
		mix(d.LSTM.Fingerprint())
	}
	if d.Mapper != nil {
		entries := d.Mapper.Entries()
		mix(uint64(len(entries)))
		for _, e := range entries {
			mix(uint64(e.Addr)<<32 | uint64(uint32(e.Class)))
		}
		if d.Mapper.HasSyscalls() {
			mix(1)
		}
	}
	return h
}

// victimProgram returns the deployment's generated victim binary and the
// shared translation cache over it, generating both on first use. The
// profile's generator is deterministic, so memoizing changes nothing
// architecturally — it only makes the image's identity (and hence cache
// sharing) explicit.
func (d *Deployment) victimProgram() (*isa.Program, *cpu.Cache, error) {
	d.victimOnce.Do(func() {
		d.victimProg, d.victimErr = d.Profile.Generate()
		if d.victimErr == nil {
			d.victimCache = cpu.NewCache(d.victimProg)
		}
	})
	return d.victimProg, d.victimCache, d.victimErr
}

// Window returns the deployment's input-vector length.
func (d *Deployment) Window() int {
	if d.Kind == ModelELM {
		return kernels.ELMWindow
	}
	return kernels.LSTMWindow
}

// entryClasses resolves every pool table entry through the mapper once,
// exactly as the IGM resolves a branch target, translated into the model
// alphabet. ok[k] is false where the IGM drops entry k.
func entryClasses(table []attack.Entry, mapper *igm.AddressMap,
	translate func(int32) int32) (classes []int32, ok []bool) {
	classes, ok = make([]int32, len(table)), make([]bool, len(table))
	for k, e := range table {
		c, mapped := mapper.Lookup(e.Target)
		if mapped && translate != nil {
			c = translate(c)
		}
		classes[k], ok[k] = c, mapped
	}
	return classes, ok
}

// collectWindows filters the training run's taken transfers through the
// mapper exactly as the IGM would, translating classes into the model
// alphabet, and slices the result into windows at the given stride. This is
// the offline training path: it sees the same data the hardware pipeline
// delivers, without paying for packet encode/decode on tens of millions of
// instructions.
func collectWindows(pool *attack.Pool, mapper *igm.AddressMap,
	translate func(int32) int32, window, stride int) [][]int32 {
	entry, ok := entryClasses(pool.Table(), mapper, translate)
	var classes []int32
	for _, k := range pool.Index() {
		if ok[k] {
			classes = append(classes, entry[k])
		}
	}
	var out [][]int32
	for i := window; i <= len(classes); i += stride {
		out = append(out, append([]int32(nil), classes[i-window:i]...))
	}
	return out
}

// elmTranslate maps IGM syscall classes to ELM model classes.
func elmTranslate(c int32) int32 { return c - igm.SyscallClass(0) }

// Train runs the offline deployment flow for cfg.
func Train(cfg TrainConfig) (*Deployment, error) {
	prog, err := cfg.Profile.Generate()
	if err != nil {
		return nil, err
	}
	// Normal-trace collection run, recorded straight into the pool.
	pool := &attack.Pool{}
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: pool})
	collect := func() error {
		if _, err := c.Run(cfg.TrainInstr); err != nil {
			return fmt.Errorf("core: trace collection: %w", err)
		}
		return pool.Err()
	}
	if err := collect(); err != nil {
		return nil, err
	}

	dep := &Deployment{Profile: cfg.Profile, Kind: cfg.Kind, Pool: pool}
	switch cfg.Kind {
	case ModelELM:
		dep.Mapper = igm.NewAddressMap()
		dep.Mapper.AddSyscalls()
		dep.Translate = elmTranslate
		// Syscall density varies an order of magnitude across the suite;
		// extend the collection run until the ridge solve has enough
		// windows (or the hard cap is hit). Windows are counted as events
		// arrive: each round classifies only the events the last run added.
		need := int(float64(ml.DefaultELMConfig().Hidden)/(1-cfg.CalibFraction)) + 40
		const collectCap = int64(90_000_000) // extra-instruction hard cap
		counted, mapped := 0, 0
		for extra := int64(0); extra < collectCap; extra += cfg.TrainInstr {
			_, ok := entryClasses(pool.Table(), dep.Mapper, dep.Translate)
			for _, k := range pool.Index()[counted:] {
				if ok[k] {
					mapped++
				}
			}
			counted = pool.Len()
			if mapped-kernels.ELMWindow+1 >= need { // windows at stride 1
				break
			}
			if err := collect(); err != nil {
				return nil, err
			}
		}
		windows := collectWindows(pool, dep.Mapper, dep.Translate, kernels.ELMWindow, 1)
		train, calib := splitWindows(windows, cfg.CalibFraction)
		dep.TrainWindows = len(train)
		model, err := ml.TrainELM(ml.DefaultELMConfig(), train)
		if err != nil {
			return nil, fmt.Errorf("core: ELM training on %s: %w", cfg.Profile.Name, err)
		}
		var scores []float64
		for _, w := range calib {
			scores = append(scores, model.Score(w))
		}
		model.Threshold = ml.CalibrateThreshold(smoothScores(scores), 1.0, cfg.ThresholdMargin)
		dep.ELM = model

	case ModelLSTM:
		dep.Mapper = buildBranchVocab(pool, kernels.LSTMVocab)
		dep.Translate = nil // vocabulary classes are already 0..Vocab-1
		stride := cfg.TrainStride
		if stride <= 0 {
			stride = 64
		}
		windows := collectWindows(pool, dep.Mapper, nil, kernels.LSTMWindow, stride)
		train, calib := splitWindows(windows, cfg.CalibFraction)
		dep.TrainWindows = len(train)
		model, err := ml.TrainLSTM(ml.DefaultLSTMConfig(), train)
		if err != nil {
			return nil, fmt.Errorf("core: LSTM training on %s: %w", cfg.Profile.Name, err)
		}
		st := model.NewState()
		var scores []float64
		for _, w := range calib {
			s, err := model.Score(st, w)
			if err != nil {
				return nil, err
			}
			scores = append(scores, s)
		}
		model.Threshold = ml.CalibrateThreshold(smoothScores(scores), 1.0, cfg.ThresholdMargin)
		dep.LSTM = model

	default:
		return nil, fmt.Errorf("core: unknown model kind %d", cfg.Kind)
	}
	return dep, nil
}

// smoothScores applies the same EWMA the inference engine keeps in device
// memory, so the threshold is calibrated against the quantity the hardware
// actually compares (kernels.DefaultEwmaAlpha).
func smoothScores(scores []float64) []float64 {
	out := make([]float64, len(scores))
	ew := 0.0
	for i, s := range scores {
		ew += kernels.DefaultEwmaAlpha * (s - ew)
		out[i] = ew
	}
	return out
}

// splitWindows separates calibration data from training data.
func splitWindows(windows [][]int32, calibFraction float64) (train, calib [][]int32) {
	n := len(windows)
	cut := n - int(float64(n)*calibFraction)
	if cut < 1 {
		cut = 1
	}
	if cut > n {
		cut = n
	}
	return windows[:cut], windows[cut:]
}

// buildBranchVocab configures the IGM lookup table with the most frequent
// branch targets of the normal trace — the user-configured "branches
// related to their ML models" of §III-A. Class IDs are assigned in
// frequency order, so they double as the model alphabet.
func buildBranchVocab(pool *attack.Pool, vocab int) *igm.AddressMap {
	perEntry := make([]int64, len(pool.Table()))
	for _, k := range pool.Index() {
		perEntry[k]++
	}
	counts := map[uint32]int64{}
	for k, e := range pool.Table() {
		counts[e.Target] += perEntry[k]
	}
	type tc struct {
		target uint32
		n      int64
	}
	var all []tc
	for t, n := range counts {
		all = append(all, tc{t, n})
	}
	// Sort by count descending, target ascending for determinism.
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].target < all[j].target
	})
	m := igm.NewAddressMap()
	for i := 0; i < len(all) && i < vocab; i++ {
		m.Add(all[i].target)
	}
	return m
}
