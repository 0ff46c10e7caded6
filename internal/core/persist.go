package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"rtad/internal/attack"
	"rtad/internal/igm"
	"rtad/internal/kernels"
	"rtad/internal/ml"
	"rtad/internal/workload"
)

// Training a deployment is the expensive part of the flow (§III-C runs the
// target application "in advance"), so deployments are serialisable: train
// once with cmd/rtadsim or your own harness, save, and reload into any
// number of pipelines. The on-disk format is a versioned gob of the model
// parameters, the IGM table contents and the legitimate-event pool, the
// pool as its table of distinct entries plus one index per event.

// persistVersion guards the format; bump on incompatible changes. v2 stores
// the pool dictionary-coded; v1 stored every pool event in full.
const persistVersion = 2

// ErrInvalidDeployment is wrapped by every LoadDeployment error that comes
// from a decoded file's contents rather than from its encoding: a shape,
// range or reference that a deployment trained by Train cannot have.
var ErrInvalidDeployment = errors.New("core: invalid deployment")

// deploymentDTO is the serialised form of a Deployment. The protocol
// converter (a func) and the mapper (unexported internals) are rebuilt on
// load from Kind and the table entries.
type deploymentDTO struct {
	Version      int
	ProfileName  string
	Kind         ModelKind
	MapEntries   []igm.Entry
	MapSyscalls  bool
	ELM          *ml.ELM
	LSTM         *ml.LSTM
	PoolTable    []attack.Entry
	PoolIndex    []uint16
	TrainWindows int
}

// Save writes the deployment to w.
func (d *Deployment) Save(w io.Writer) error {
	dto := deploymentDTO{
		Version:      persistVersion,
		ProfileName:  d.Profile.Name,
		Kind:         d.Kind,
		MapEntries:   d.Mapper.Entries(),
		MapSyscalls:  d.Mapper.HasSyscalls(),
		ELM:          d.ELM,
		LSTM:         d.LSTM,
		PoolTable:    d.Pool.Table(),
		PoolIndex:    d.Pool.Index(),
		TrainWindows: d.TrainWindows,
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// SaveFile writes the deployment to path.
func (d *Deployment) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadDeployment reads a deployment written by Save. The benchmark profile
// is resolved by name, so the generated victim binary is identical to the
// one the deployment was trained against. Files are untrusted input: every
// model array, the pool, the mapper and the thresholds are checked before
// the deployment is returned, and a failed check wraps ErrInvalidDeployment.
func LoadDeployment(r io.Reader) (*Deployment, error) {
	var dto deploymentDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decoding deployment: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("core: deployment format v%d, want v%d", dto.Version, persistVersion)
	}
	return rebuildDeployment(&dto)
}

// LoadDeploymentFile reads a deployment from path.
func LoadDeploymentFile(path string) (*Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDeployment(f)
}

func rebuildDeployment(dto *deploymentDTO) (*Deployment, error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidDeployment, fmt.Sprintf(format, args...))
	}
	profile, ok := workload.ByName(dto.ProfileName)
	if !ok {
		return nil, invalid("unknown benchmark %q", dto.ProfileName)
	}
	if dto.ELM != nil && dto.LSTM != nil {
		return nil, invalid("deployment carries both an ELM and an LSTM")
	}
	var (
		vocab     int
		translate func(int32) int32
	)
	switch dto.Kind {
	case ModelELM:
		if dto.ELM == nil {
			return nil, invalid("ELM deployment without a model")
		}
		if err := checkELM(dto.ELM); err != nil {
			return nil, invalid("%v", err)
		}
		vocab, translate = dto.ELM.Cfg.Vocab, elmTranslate
	case ModelLSTM:
		if dto.LSTM == nil {
			return nil, invalid("LSTM deployment without a model")
		}
		if err := checkLSTM(dto.LSTM); err != nil {
			return nil, invalid("%v", err)
		}
		if dto.MapSyscalls {
			return nil, invalid("LSTM mapper admits syscalls, whose classes lie outside the model vocabulary")
		}
		vocab = dto.LSTM.Cfg.Vocab
	default:
		return nil, invalid("unknown model kind %d", dto.Kind)
	}
	if len(dto.MapEntries) > vocab {
		return nil, invalid("mapper has %d entries for a %d-class vocabulary", len(dto.MapEntries), vocab)
	}
	for _, e := range dto.MapEntries {
		c := e.Class
		if translate != nil {
			c = translate(c)
		}
		if c < 0 || int(c) >= vocab {
			return nil, invalid("mapper entry %#x has class %d, outside the %d-class vocabulary", e.Addr, e.Class, vocab)
		}
	}
	pool, err := attack.NewPool(dto.PoolTable, dto.PoolIndex)
	if err != nil {
		return nil, invalid("pool: %v", err)
	}
	return &Deployment{
		Profile:      profile,
		Kind:         dto.Kind,
		Mapper:       igm.NewAddressMapFromEntries(dto.MapEntries, dto.MapSyscalls),
		Translate:    translate,
		ELM:          dto.ELM,
		LSTM:         dto.LSTM,
		Pool:         pool,
		TrainWindows: dto.TrainWindows,
	}, nil
}

// checkELM checks the model against the deployed kernel's shape: its Cfg,
// every weight array against the Cfg, and a finite threshold.
func checkELM(m *ml.ELM) error {
	c := m.Cfg
	if c.Window != kernels.ELMWindow || c.Vocab != kernels.ELMVocab || c.Hidden != kernels.ELMHidden {
		return fmt.Errorf("ELM shape %d/%d/%d (window/vocab/hidden), the kernel runs %d/%d/%d",
			c.Window, c.Vocab, c.Hidden, kernels.ELMWindow, kernels.ELMVocab, kernels.ELMHidden)
	}
	return errors.Join(
		checkMat("ELM W1", m.W1, c.Hidden, (c.Window-1)*c.Vocab),
		checkVec("ELM B1", m.B1, c.Hidden),
		checkMat("ELM BetaT", m.BetaT, c.Vocab, c.Hidden),
		checkFinite("ELM threshold", m.Threshold))
}

// checkLSTM is checkELM for the LSTM.
func checkLSTM(m *ml.LSTM) error {
	c := m.Cfg
	if c.Window != kernels.LSTMWindow || c.Vocab != kernels.LSTMVocab ||
		c.Embed != kernels.LSTMEmbed || c.Hidden != kernels.LSTMHidden {
		return fmt.Errorf("LSTM shape %d/%d/%d/%d (window/vocab/embed/hidden), the kernel runs %d/%d/%d/%d",
			c.Window, c.Vocab, c.Embed, c.Hidden,
			kernels.LSTMWindow, kernels.LSTMVocab, kernels.LSTMEmbed, kernels.LSTMHidden)
	}
	errs := []error{
		checkMat("LSTM Emb", m.Emb, c.Vocab, c.Embed),
		checkMat("LSTM OutW", m.OutW, c.Vocab, c.Hidden),
		checkVec("LSTM OutB", m.OutB, c.Vocab),
		checkFinite("LSTM threshold", m.Threshold),
	}
	for g := 0; g < ml.NumGates; g++ {
		errs = append(errs,
			checkMat(fmt.Sprintf("LSTM Wg[%d]", g), m.Wg[g], c.Hidden, c.Embed+c.Hidden),
			checkVec(fmt.Sprintf("LSTM Bg[%d]", g), m.Bg[g], c.Hidden))
	}
	return errors.Join(errs...)
}

func checkMat(name string, m *ml.Mat, rows, cols int) error {
	switch {
	case m == nil:
		return fmt.Errorf("%s missing", name)
	case m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols:
		return fmt.Errorf("%s is %dx%d with %d values, want %dx%d", name, m.Rows, m.Cols, len(m.Data), rows, cols)
	}
	return nil
}

func checkVec(name string, v []float64, n int) error {
	if len(v) != n {
		return fmt.Errorf("%s has %d entries, want %d", name, len(v), n)
	}
	return nil
}

func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s %v is not finite", name, v)
	}
	return nil
}
