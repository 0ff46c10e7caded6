package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rtad/internal/kernels"
)

// reportSchemaCase is one backend's expected report header.
type reportSchemaCase struct {
	backend, want string
	costs         bool // record a non-empty calibration table
}

// checkReportSchema pins the report header: every report is ReportSchema
// and names the resolved backend, and calibration appears only when a
// non-empty cycle-cost table was recorded.
func checkReportSchema(t *testing.T, cases []reportSchemaCase) {
	t.Helper()
	for _, tc := range cases {
		o := quickOpts()
		o.Backend = tc.backend
		r := NewReport(o)
		r.RecordCalibration(nil)                      // nil table: no-op
		r.RecordCalibration(kernels.NewCalibration()) // empty table: no-op
		if tc.costs {
			c := kernels.NewCalibration()
			c.Record(kernels.CalKey{Model: "lstm", Window: 16, CUs: 5}, 777)
			r.RecordCalibration(c)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Schema  string `json:"schema"`
			Backend string `json:"backend"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Schema != ReportSchema || doc.Backend != tc.want {
			t.Errorf("backend %q: schema %q backend %q, want %q %q",
				tc.backend, doc.Schema, doc.Backend, ReportSchema, tc.want)
		}
		if got := strings.Contains(string(blob), `"calibration"`); got != tc.costs {
			t.Errorf("backend %q: calibration key present %v, want %v: %s", tc.backend, got, tc.costs, blob)
		}
		if tc.costs && !strings.Contains(string(blob), `"cycles":777`) {
			t.Errorf("backend %q: recorded costs missing: %s", tc.backend, blob)
		}
	}
}

// TestReportSchemaStableForDefaultBackend: an unnamed backend resolves to
// kernels.DefaultBackend and records it, like an explicit gpu one, and an
// empty calibration table adds no key.
func TestReportSchemaStableForDefaultBackend(t *testing.T) {
	checkReportSchema(t, []reportSchemaCase{
		{"", kernels.DefaultBackend, false},
		{kernels.BackendGPU, kernels.BackendGPU, false},
	})
}

// TestReportSchemaV2ForNativeBackends: a native-calibrated report carries
// the same schema as the default one, plus the recorded cycle costs.
func TestReportSchemaV2ForNativeBackends(t *testing.T) {
	checkReportSchema(t, []reportSchemaCase{
		{kernels.BackendNativeCalibrated, kernels.BackendNativeCalibrated, true},
	})
}

// TestFig8GridBackendEquivalence is the acceptance check for the backend
// refactor at grid scale: the full Fig 8 benchmark × model × CU sweep must
// produce identical rows — latencies, drops, detection verdicts — on the
// native backend as on the cycle-accurate GPU reference. Every backend
// also runs on the byte/word reference chain, the counted chain's oracle:
// its report must match the counted one byte for byte.
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
			t.Errorf("%s: counted report diverges from the reference:\n  counted   %s\n  reference %s", backend, fusedJSON, stagedJSON)
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
