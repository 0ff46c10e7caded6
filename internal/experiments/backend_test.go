package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rtad/internal/kernels"
)

// TestReportSchemaStableForDefaultBackend pins the compatibility contract:
// a default-backend report keeps schema v1 and never grows the backend or
// calibration keys, so its JSON stays byte-identical to older builds.
func TestReportSchemaStableForDefaultBackend(t *testing.T) {
	for _, backend := range []string{"", kernels.BackendGPU} {
		o := quickOpts()
		o.Backend = backend
		r := NewReport(o)
		if r.Schema != ReportSchema {
			t.Errorf("backend %q: schema %q, want %q", backend, r.Schema, ReportSchema)
		}
		r.RecordCalibration(nil)                      // nil table: no-op
		r.RecordCalibration(kernels.NewCalibration()) // empty table: no-op
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"backend"`, `"calibration"`} {
			if strings.Contains(string(blob), key) {
				t.Errorf("backend %q: default report JSON contains %s: %s", backend, key, blob)
			}
		}
	}
}

func TestReportSchemaV2ForNativeBackends(t *testing.T) {
	o := quickOpts()
	o.Backend = kernels.BackendNativeCalibrated
	r := NewReport(o)
	if r.Schema != ReportSchemaV2 {
		t.Errorf("schema %q, want %q", r.Schema, ReportSchemaV2)
	}
	if r.Backend != o.Backend {
		t.Errorf("backend field %q, want %q", r.Backend, o.Backend)
	}

	c := kernels.NewCalibration()
	c.Record(kernels.CalKey{Model: "lstm", Window: 16, CUs: 5}, 777)
	r.RecordCalibration(c)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{ReportSchemaV2, `"backend":"native-calibrated"`, `"cycles":777`} {
		if !strings.Contains(string(blob), frag) {
			t.Errorf("v2 report JSON missing %s: %s", frag, blob)
		}
	}
}

// TestFig8GridBackendEquivalence is the acceptance check for the backend
// refactor at grid scale: the full Fig 8 benchmark × model × CU sweep must
// produce identical rows — latencies, drops, detection verdicts — on the
// native backend as on the cycle-accurate GPU reference. Every backend
// also runs on the staged byte/word trace path, the fused fast path's
// oracle: its report must match the fused one byte for byte.
func TestFig8GridBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 is the heaviest experiment")
	}
	o := quickOpts()
	o.Benchmarks = []string{"458.sjeng", "456.hmmer"}
	// run renders one grid as cmd/experiments -json does, wall clock aside.
	run := func(backend string, staged bool) (*Fig8Result, []byte) {
		t.Helper()
		bo := o
		bo.Backend, bo.stagedTrace = backend, staged
		if backend == kernels.BackendNativeCalibrated {
			bo.Calibration = kernels.NewCalibration()
		}
		res, err := Fig8(bo)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReport(bo)
		r.Fig8 = res.Report()
		r.RecordCalibration(bo.Calibration)
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return res, blob
	}
	ref, refJSON := run(kernels.BackendGPU, false)
	for _, backend := range []string{kernels.BackendGPU, kernels.BackendNativeCalibrated} {
		fusedJSON := refJSON
		if backend != kernels.BackendGPU {
			var got *Fig8Result
			got, fusedJSON = run(backend, false)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s grid diverges from gpu:\n  got  %+v\n  want %+v", backend, got, ref)
			}
		}
		if _, stagedJSON := run(backend, true); !bytes.Equal(stagedJSON, fusedJSON) {
			t.Errorf("%s: fused report diverges from staged:\n  fused  %s\n  staged %s", backend, fusedJSON, stagedJSON)
		}
	}
}

// TestFig6GridBackendEquivalence: Fig 6 measures CPU-side collection
// overhead, so the backend cannot change it — but the option must thread
// through without disturbing the grid.
func TestFig6GridBackendEquivalence(t *testing.T) {
	o := quickOpts()
	ref, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	bo := o
	bo.Backend = kernels.BackendNativeCalibrated
	got, err := Fig6(bo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("native Fig6 grid diverges from gpu:\n  got  %+v\n  want %+v", got, ref)
	}
}
