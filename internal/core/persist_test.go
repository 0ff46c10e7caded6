package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rtad/internal/attack"
	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ml"
	"rtad/internal/workload"
)

func TestDeploymentSaveLoadRoundTrip(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compareDeployments(t, dep, got)

	// The reloaded deployment must behave identically: same detection
	// latency and judgment sequence on the same run.
	a := detect(t, dep, PipelineConfig{CUs: 5}, AttackSpec{Seed: 4}, 1_500_000)
	b := detect(t, got, PipelineConfig{CUs: 5}, AttackSpec{Seed: 4}, 1_500_000)
	if a.Latency != b.Latency || a.Detected != b.Detected || a.Judged != b.Judged {
		t.Errorf("reloaded deployment diverges: %v/%v/%d vs %v/%v/%d",
			a.Latency, a.Detected, a.Judged, b.Latency, b.Detected, b.Judged)
	}
}

func TestDeploymentSaveLoadFileELM(t *testing.T) {
	dep := trainELMDeployment(t, "403.gcc")
	path := filepath.Join(t.TempDir(), "gcc-elm.rtad")
	if err := dep.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeploymentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compareDeployments(t, dep, got)
	if got.Translate(1024+7) != 7 {
		t.Error("protocol converter not rebuilt")
	}
}

// compareDeployments checks that every serialised field of want survived
// into got: identity, IGM table, model weights and threshold, the pool's
// table and indices element by element, and the training window count.
func compareDeployments(t *testing.T, want, got *Deployment) {
	t.Helper()
	if got.Profile.Name != want.Profile.Name || got.Kind != want.Kind {
		t.Errorf("identity %s/%v, want %s/%v", got.Profile.Name, got.Kind, want.Profile.Name, want.Kind)
	}
	if !reflect.DeepEqual(got.Mapper.Entries(), want.Mapper.Entries()) {
		t.Error("mapper entries differ")
	}
	if got.Mapper.HasSyscalls() != want.Mapper.HasSyscalls() {
		t.Error("syscall admission flag lost")
	}
	if (got.Translate == nil) != (want.Translate == nil) {
		t.Error("protocol converter not rebuilt")
	}
	if got.TrainWindows != want.TrainWindows {
		t.Errorf("TrainWindows %d, want %d", got.TrainWindows, want.TrainWindows)
	}
	switch {
	case want.ELM != nil:
		w, g := want.ELM, got.ELM
		if g == nil || g.Cfg != w.Cfg || g.Threshold != w.Threshold ||
			!reflect.DeepEqual(g.W1, w.W1) || !reflect.DeepEqual(g.B1, w.B1) ||
			!reflect.DeepEqual(g.BetaT, w.BetaT) {
			t.Error("ELM model differs")
		}
	case want.LSTM != nil:
		w, g := want.LSTM, got.LSTM
		if g == nil || g.Cfg != w.Cfg || g.Threshold != w.Threshold ||
			!reflect.DeepEqual(g.Emb, w.Emb) || !reflect.DeepEqual(g.Wg, w.Wg) ||
			!reflect.DeepEqual(g.Bg, w.Bg) || !reflect.DeepEqual(g.OutW, w.OutW) ||
			!reflect.DeepEqual(g.OutB, w.OutB) {
			t.Error("LSTM model differs")
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("fingerprint differs")
	}
	wt, gt := want.Pool.Table(), got.Pool.Table()
	if len(gt) != len(wt) {
		t.Fatalf("pool table %d entries, want %d", len(gt), len(wt))
	}
	for k := range wt {
		if gt[k] != wt[k] {
			t.Fatalf("pool table entry %d = %+v, want %+v", k, gt[k], wt[k])
		}
	}
	wi, gi := want.Pool.Index(), got.Pool.Index()
	if len(gi) != len(wi) {
		t.Fatalf("pool %d events, want %d", len(gi), len(wi))
	}
	for i := range wi {
		if gi[i] != wi[i] {
			t.Fatalf("pool event %d is entry %d, want %d", i, gi[i], wi[i])
		}
	}
}

func TestLoadDeploymentRejectsGarbage(t *testing.T) {
	if _, err := LoadDeployment(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestLoadDeploymentRejectsV1 encodes a file in the v1 layout, which stored
// every pool event in full, and expects an error naming both versions.
func TestLoadDeploymentRejectsV1(t *testing.T) {
	v1 := struct {
		Version      int
		ProfileName  string
		Kind         ModelKind
		MapEntries   []igm.Entry
		MapSyscalls  bool
		ELM          *ml.ELM
		LSTM         *ml.LSTM
		Pool         []cpu.BranchEvent
		TrainWindows int
	}{Version: 1, ProfileName: "458.sjeng", Kind: ModelLSTM, LSTM: smallDeploymentDTO(t, ModelLSTM).LSTM,
		Pool: []cpu.BranchEvent{{PC: 0x8000, Target: 0x8100, Taken: true}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDeployment(&buf)
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("v1 file: error %v, want one naming v1 and v2", err)
	}
}

// smallDeploymentDTO is a valid v2 deployment of 458.sjeng small enough to
// seed a fuzz corpus: zero weights of the deployed shape, and a pool (plus,
// for the LSTM, a vocabulary) recorded from a 2k-instruction normal run.
func smallDeploymentDTO(t testing.TB, kind ModelKind) *deploymentDTO {
	t.Helper()
	p, _ := workload.ByName("458.sjeng")
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pool := &attack.Pool{}
	if _, err := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: pool}).Run(2_000); err != nil {
		t.Fatal(err)
	}
	dto := &deploymentDTO{Version: persistVersion, ProfileName: p.Name, Kind: kind,
		PoolTable: pool.Table(), PoolIndex: pool.Index()}
	switch kind {
	case ModelELM:
		c := ml.DefaultELMConfig()
		dto.MapSyscalls = true
		dto.ELM = &ml.ELM{Cfg: c, W1: ml.NewMat(c.Hidden, (c.Window-1)*c.Vocab),
			B1: make([]float64, c.Hidden), BetaT: ml.NewMat(c.Vocab, c.Hidden), Threshold: 1}
	case ModelLSTM:
		dto.LSTM = smallLSTM()
		dto.MapEntries = buildBranchVocab(pool, dto.LSTM.Cfg.Vocab).Entries()
	}
	return dto
}

// smallLSTM is an LSTM of the deployed shape with zero weights.
func smallLSTM() *ml.LSTM {
	c := ml.DefaultLSTMConfig()
	m := &ml.LSTM{Cfg: c, Emb: ml.NewMat(c.Vocab, c.Embed),
		OutW: ml.NewMat(c.Vocab, c.Hidden), OutB: make([]float64, c.Vocab), Threshold: 1}
	for g := range m.Wg {
		m.Wg[g] = ml.NewMat(c.Hidden, c.Embed+c.Hidden)
		m.Bg[g] = make([]float64, c.Hidden)
	}
	return m
}

func encodeDTO(t testing.TB, d *deploymentDTO) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadDeploymentValidation: a deployment file is untrusted input. Each
// defect — one per check, a mutation of a small valid deployment of the
// given kind — must fail the load with ErrInvalidDeployment and an error
// naming the field (want), not load and then panic in the first session,
// as a truncated LSTM OutB did.
func TestLoadDeploymentValidation(t *testing.T) {
	for _, kind := range []ModelKind{ModelELM, ModelLSTM} {
		t.Run("valid_"+kind.String(), func(t *testing.T) {
			if _, err := LoadDeployment(bytes.NewReader(encodeDTO(t, smallDeploymentDTO(t, kind)))); err != nil {
				t.Fatalf("valid %v deployment rejected: %v", kind, err)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		kind   ModelKind
		mutate func(d *deploymentDTO)
		want   string
	}{
		{"unknown_benchmark", ModelLSTM, func(d *deploymentDTO) { d.ProfileName = "999.nope" }, `unknown benchmark "999.nope"`},
		{"unknown_kind", ModelLSTM, func(d *deploymentDTO) { d.Kind = 7 }, "unknown model kind 7"},
		{"lstm_missing_model", ModelLSTM, func(d *deploymentDTO) { d.LSTM = nil }, "LSTM deployment without a model"},
		{"elm_missing_model", ModelELM, func(d *deploymentDTO) { d.ELM = nil }, "ELM deployment without a model"},
		{"both_models", ModelELM, func(d *deploymentDTO) { d.LSTM = smallLSTM() }, "both an ELM and an LSTM"},
		{"lstm_outb_truncated", ModelLSTM, func(d *deploymentDTO) { d.LSTM.OutB = d.LSTM.OutB[:3] }, "LSTM OutB has 3 entries, want 64"},
		{"lstm_emb_shape", ModelLSTM, func(d *deploymentDTO) { d.LSTM.Emb = ml.NewMat(16, 64) }, "LSTM Emb is 16x64"},
		{"lstm_gate_empty", ModelLSTM, func(d *deploymentDTO) { d.LSTM.Wg[2] = &ml.Mat{} }, "LSTM Wg[2] is 0x0 with 0 values"},
		{"lstm_gate_bias_short", ModelLSTM, func(d *deploymentDTO) { d.LSTM.Bg[3] = d.LSTM.Bg[3][:31] }, "LSTM Bg[3] has 31 entries"},
		{"lstm_outw_data_short", ModelLSTM, func(d *deploymentDTO) { d.LSTM.OutW.Data = d.LSTM.OutW.Data[:100] }, "LSTM OutW is 64x32 with 100 values"},
		{"lstm_cfg_shape", ModelLSTM, func(d *deploymentDTO) { d.LSTM.Cfg.Hidden = 8 }, "LSTM shape 16/64/16/8"},
		{"elm_w1_shape", ModelELM, func(d *deploymentDTO) { d.ELM.W1 = ml.NewMat(80, 255) }, "ELM W1 is 80x255"},
		{"elm_b1_short", ModelELM, func(d *deploymentDTO) { d.ELM.B1 = nil }, "ELM B1 has 0 entries"},
		{"elm_beta_missing", ModelELM, func(d *deploymentDTO) { d.ELM.BetaT = nil }, "ELM BetaT missing"},
		{"elm_cfg_shape", ModelELM, func(d *deploymentDTO) { d.ELM.Cfg.Vocab = 1 << 40 }, "ELM shape 9/1099511627776/80"},
		{"lstm_threshold_nan", ModelLSTM, func(d *deploymentDTO) { d.LSTM.Threshold = math.NaN() }, "LSTM threshold NaN is not finite"},
		{"elm_threshold_inf", ModelELM, func(d *deploymentDTO) { d.ELM.Threshold = math.Inf(1) }, "ELM threshold +Inf is not finite"},
		{"pool_table_empty", ModelLSTM, func(d *deploymentDTO) { d.PoolTable = nil }, "pool table of 0 entries"},
		{"pool_table_oversized", ModelLSTM, func(d *deploymentDTO) {
			d.PoolTable = make([]attack.Entry, attack.MaxPoolEntries+1)
		}, "pool table of 65537 entries"},
		{"pool_no_events", ModelLSTM, func(d *deploymentDTO) { d.PoolIndex = nil }, "records no events"},
		{"pool_index_out_of_table", ModelLSTM, func(d *deploymentDTO) {
			d.PoolIndex[5] = uint16(len(d.PoolTable))
		}, "pool event 5 names entry"},
		{"mapper_too_many_entries", ModelLSTM, func(d *deploymentDTO) {
			d.MapEntries = make([]igm.Entry, 65)
			for i := range d.MapEntries {
				d.MapEntries[i] = igm.Entry{Addr: uint32(i) * 4, Class: int32(i % 64)}
			}
		}, "mapper has 65 entries for a 64-class vocabulary"},
		{"mapper_class_out_of_vocab", ModelLSTM, func(d *deploymentDTO) { d.MapEntries[0].Class = 64 }, "has class 64, outside the 64-class vocabulary"},
		{"mapper_class_negative", ModelLSTM, func(d *deploymentDTO) { d.MapEntries[1].Class = -1 }, "has class -1"},
		{"lstm_mapper_syscalls", ModelLSTM, func(d *deploymentDTO) { d.MapSyscalls = true }, "LSTM mapper admits syscalls"},
		{"elm_mapper_branch_class", ModelELM, func(d *deploymentDTO) {
			d.MapEntries = []igm.Entry{{Addr: 0x8000, Class: 3}}
		}, "has class 3, outside the 32-class vocabulary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDeploymentDTO(t, tc.kind)
			tc.mutate(d)
			_, err := LoadDeployment(bytes.NewReader(encodeDTO(t, d)))
			if !errors.Is(err, ErrInvalidDeployment) {
				t.Fatalf("error %v, want ErrInvalidDeployment", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the defect (%q)", err, tc.want)
			}
		})
	}
}

// TestTrainPoolMatchesCollectSink pins the coded pool at its source: Train
// must record exactly the taken (PC, Target, Kind) sequence a TakenOnly
// CollectSink sees over the same program and budget.
func TestTrainPoolMatchesCollectSink(t *testing.T) {
	p, _ := workload.ByName("458.sjeng")
	cfg := DefaultTrainConfig(p, ModelLSTM)
	cfg.TrainInstr = 1_200_000
	dep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := &cpu.CollectSink{TakenOnly: true}
	if _, err := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: rec}).Run(cfg.TrainInstr); err != nil {
		t.Fatal(err)
	}
	if dep.Pool.Len() != len(rec.Events) {
		t.Fatalf("pool has %d events, the collector %d", dep.Pool.Len(), len(rec.Events))
	}
	for i, ev := range rec.Events {
		if got, want := dep.Pool.At(i), (attack.Entry{PC: ev.PC, Target: ev.Target, Kind: ev.Kind}); got != want {
			t.Fatalf("pool event %d = %+v, collector %+v", i, got, want)
		}
	}
}

// FuzzLoadDeployment: LoadDeployment never panics, whatever the bytes, and
// every deployment it accepts opens as an armed trace-input session that
// judges a short 458.sjeng trace without panicking or failing. The
// committed corpus holds the valid LSTM file of TestLoadDeploymentValidation
// and the encodings of five of its defects: a truncated OutB, a NaN
// threshold, an empty pool table, a pool index outside the table and a
// mapper class outside the vocabulary.
func FuzzLoadDeployment(f *testing.F) {
	trace := captureStream(f, "458.sjeng", 20_000)
	f.Fuzz(func(t *testing.T, data []byte) {
		dep, err := LoadDeployment(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := Open(Deployments{dep}, WithTraceInput(0),
			WithConfig(PipelineConfig{Stride: 8}),
			WithAttack(AttackSpec{TriggerBranch: 50, BurstLen: 64, Seed: 1}))
		if err != nil {
			t.Fatalf("accepted deployment does not open: %v", err)
		}
		if err := s.FeedTrace(trace); err != nil {
			t.Fatalf("accepted deployment fails a trace: %v", err)
		}
	})
}
