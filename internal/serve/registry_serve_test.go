package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/registry"
)

// Second shared deployment: same benchmark, smaller training budget, so it
// has different weights (distinct fingerprint, distinct judgment stream)
// while negotiating the same hello. This is the "retrained model" of the
// lifecycle tests.
var (
	fixOnceB sync.Once
	fixErrB  error
	fixDepB  *core.Deployment
)

func fixturesB(t *testing.T) *core.Deployment {
	t.Helper()
	depA, _ := fixtures(t)
	fixOnceB.Do(func() {
		cfg := core.DefaultTrainConfig(depA.Profile, core.ModelLSTM)
		cfg.TrainInstr = 800_000
		fixDepB, fixErrB = core.Train(cfg)
	})
	if fixErrB != nil {
		t.Fatal(fixErrB)
	}
	if fixDepB.Fingerprint() == depA.Fingerprint() {
		t.Fatal("retrained fixture has the same fingerprint as the original; lifecycle tests would be vacuous")
	}
	return fixDepB
}

// lifecycleServer starts a server with its registry exposed, deploys A as
// the active version, and returns the address plus the registry handle.
func lifecycleServer(t *testing.T, tel *obs.Telemetry, depA *core.Deployment) (string, *registry.Registry) {
	t.Helper()
	opts := []Option{WithWorkers(4)}
	if tel != nil {
		opts = append(opts, WithTelemetry(tel))
	}
	srv := New(nil, opts...)
	srv.Deploy(depA)
	return serveLoopback(t, srv), srv.Registry()
}

// lookupVersion returns the snapshot row of version id of model key, and
// whether the registry still holds that version.
func lookupVersion(reg *registry.Registry, key string, id int64) (registry.VersionInfo, bool) {
	for _, mi := range reg.Snapshot() {
		if mi.Model != key {
			continue
		}
		for _, vi := range mi.Versions {
			if vi.Version == id {
				return vi, true
			}
		}
	}
	return registry.VersionInfo{}, false
}

func findVersion(t *testing.T, reg *registry.Registry, key string, id int64) registry.VersionInfo {
	t.Helper()
	vi, ok := lookupVersion(reg, key, id)
	if !ok {
		t.Fatalf("version %s@%d not in registry snapshot", key, id)
	}
	return vi
}

// TestHotSwapUnderLoad is the zero-downtime acceptance test. A client is
// admitted on v1 and mid-stream the registry promotes a retrained v2:
//
//   - the in-flight session must finish on v1 with a judgment stream
//     byte-identical to a no-swap run (admission pins the version);
//   - a session opened after the swap must judge on v2, byte-identical to
//     a fresh v2-only server, and its welcome must carry model_version 2;
//   - no frame is rejected at any point — the swap is invisible to clients
//     except through the version field.
//
// Run under -race in CI: the promote races the in-flight session's feed
// path by construction.
func TestHotSwapUnderLoad(t *testing.T) {
	depA, stream := fixtures(t)
	depB := fixturesB(t)
	short := stream[:len(stream)/8]

	// Ground truth from single-version servers: what each model says about
	// this exact trace when no swap ever happens.
	refA, _ := referenceRun(t, depA, kernels.BackendGPU, 0, 0, short)
	refB, _ := referenceRun(t, depB, kernels.BackendGPU, 0, 0, short)
	if len(refA) == 0 || len(refB) == 0 {
		t.Fatal("reference runs judged nothing; lengthen the fixture")
	}

	tel := obs.NewMetricsOnly()
	addr, reg := lifecycleServer(t, tel, depA)
	key := depKey(fixBench, "lstm")

	// Client 1 admitted on v1; stream the first half before the swap.
	var js1, js2 []Judgment
	c1, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Attack: testAttack}, collect(&js1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.ModelVersion(); got != 1 {
		t.Fatalf("pre-swap welcome model_version = %d, want 1", got)
	}
	half := len(short) / 2
	for off := 0; off < half; off += 4096 {
		end := off + 4096
		if end > half {
			end = half
		}
		if err := c1.Send(short[off:end]); err != nil {
			t.Fatalf("pre-swap send: %v", err)
		}
	}

	// The swap: load the retrained model and promote it while c1 is live.
	v2, err := reg.Register(depB, registry.Meta{Origin: "test:retrained"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(key, v2.ID()); err != nil {
		t.Fatal(err)
	}

	// Client 2 dials after the promote: new admissions land on v2.
	c2, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Attack: testAttack}, collect(&js2))
	if err != nil {
		t.Fatalf("post-swap dial: %v", err)
	}
	if got := c2.ModelVersion(); got != 2 {
		t.Fatalf("post-swap welcome model_version = %d, want 2", got)
	}

	// Both clients finish their full streams concurrently — c1 across the
	// swap on v1, c2 entirely on v2.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for off := half; off < len(short); off += 4096 {
			end := off + 4096
			if end > len(short) {
				end = len(short)
			}
			if err := c1.Send(short[off:end]); err != nil {
				errs[0] = fmt.Errorf("post-swap send on old session: %w", err)
				return
			}
		}
		if _, err := c1.Finish(); err != nil {
			errs[0] = fmt.Errorf("old session finish: %w", err)
		}
	}()
	go func() {
		defer wg.Done()
		for off := 0; off < len(short); off += 4096 {
			end := off + 4096
			if end > len(short) {
				end = len(short)
			}
			if err := c2.Send(short[off:end]); err != nil {
				errs[1] = fmt.Errorf("new session send: %w", err)
				return
			}
		}
		if _, err := c2.Finish(); err != nil {
			errs[1] = fmt.Errorf("new session finish: %w", err)
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	compareJudgments(t, "in-flight session across the swap (v1)", js1, refA)
	compareJudgments(t, "post-swap session (v2)", js2, refB)

	if n := tel.Reg.Counter("rtad_serve_rejected_busy_total").Value() +
		tel.Reg.Counter("rtad_serve_rejected_draining_total").Value(); n != 0 {
		t.Errorf("%d sessions rejected during the swap, want 0", n)
	}
	if n := tel.Reg.Counter("rtad_serve_model_swaps_total").Value(); n != 1 {
		t.Errorf("swap counter = %d, want 1", n)
	}

	// v1 was retired by the promote and c1 — its last holder — has drained,
	// so the registry drops it entirely: retired versions release their
	// deployment memory at the last session's exit, they don't linger.
	// Finish returns once the summary frame arrives, before the server's
	// deferred session end releases c1's hold; wait for that release. A
	// leaked hold is never released, so the deadline still catches it.
	deadline := time.Now().Add(5 * time.Second)
	for vi, held := lookupVersion(reg, key, 1); held; vi, held = lookupVersion(reg, key, 1) {
		if time.Now().After(deadline) {
			t.Fatalf("drained retired v1 still in the registry: %+v", vi)
		}
		time.Sleep(10 * time.Millisecond)
	}
	v2Info := findVersion(t, reg, key, 2)
	if v2Info.State != "active" || v2Info.Judged != int64(len(refB)) {
		t.Errorf("v2 state=%s judged=%d, want active/%d", v2Info.State, v2Info.Judged, len(refB))
	}
}

// TestCanaryShadowNeverLeaks runs a full-slice canary (fraction 1.0, every
// session shadowed) and pins the two sides of the shadow contract: the
// client's judgment stream is exactly the active version's — not one byte
// of the candidate's output reaches the wire — while the registry's shadow
// tallies show the candidate judged the same traffic in full.
func TestCanaryShadowNeverLeaks(t *testing.T) {
	depA, stream := fixtures(t)
	depB := fixturesB(t)
	short := stream[:len(stream)/8]
	refA, _ := referenceRun(t, depA, kernels.BackendGPU, 0, 0, short)
	refB, _ := referenceRun(t, depB, kernels.BackendGPU, 0, 0, short)
	if len(refA) == 0 {
		t.Fatal("reference run judged nothing; lengthen the fixture")
	}

	addr, reg := lifecycleServer(t, nil, depA)
	key := depKey(fixBench, "lstm")
	v2, err := reg.Register(depB, registry.Meta{Origin: "test:canary"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.StartCanary(key, v2.ID(), 1.0); err != nil {
		t.Fatal(err)
	}

	var js []Judgment
	c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Attack: testAttack}, collect(&js))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ModelVersion(); got != 1 {
		t.Fatalf("canaried session admitted on version %d, want active version 1", got)
	}
	streamChunks(t, c, short, 4096)
	compareJudgments(t, "canaried client vs active-only reference", js, refA)

	// The candidate shadow-judged the whole stream: the tally matches what
	// a v2-only run produces, and the baseline pairing covers the same
	// traffic, so the anomaly-rate delta is meaningful.
	vi := findVersion(t, reg, key, v2.ID())
	if vi.State != "canary" {
		t.Errorf("candidate state = %s, want canary", vi.State)
	}
	if vi.ShadowSessions != 1 {
		t.Errorf("shadow sessions = %d, want 1", vi.ShadowSessions)
	}
	if vi.ShadowJudged != int64(len(refB)) {
		t.Errorf("shadow judged %d vectors, want %d (the v2-only reference)", vi.ShadowJudged, len(refB))
	}
	if vi.BaselineJudged != int64(len(refA)) {
		t.Errorf("baseline judged %d, want %d — delta must compare identical traffic", vi.BaselineJudged, len(refA))
	}

	// Promote after a clean canary: the next session lands on v2.
	if err := reg.Promote(key, v2.ID()); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.ModelVersion(); got != v2.ID() {
		t.Fatalf("post-promotion model_version = %d, want %d", got, v2.ID())
	}
	streamChunks(t, c2, short[:len(short)/4], 8192)
}

// TestWelcomeModelVersionBackCompat pins the wire shape of the new field:
// it is JSON-additive (omitted when
// zero, so pre-registry servers and golden payloads are unchanged), and a
// client of an old server reads version 0, never an error.
func TestWelcomeModelVersionBackCompat(t *testing.T) {
	// A welcome from a pre-registry server: no model_version key at all.
	legacy := Client{}
	if err := json.Unmarshal([]byte(`{"proto":"rtad-wire/1","session_id":"s-old"}`), &legacy.welcome); err != nil {
		t.Fatal(err)
	}
	if got := legacy.ModelVersion(); got != 0 {
		t.Errorf("legacy ModelVersion = %d, want 0", got)
	}

	blob, err := json.Marshal(Welcome{Proto: Proto, SessionID: "s-9"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "model_version") {
		t.Errorf("zero model_version serialised: %s — breaks byte-stable golden payloads", blob)
	}
	var raw map[string]any
	blob, err = json.Marshal(Welcome{Proto: Proto, SessionID: "s-9", ModelVersion: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["model_version"] != float64(3) {
		t.Errorf("welcome JSON = %v, want model_version 3", raw)
	}
}

// TestModelsAdminEndToEnd drives the whole lifecycle through the HTTP
// admin surface exactly as ops would: save a retrained model to disk, POST
// load+canary, watch /debug/models, POST promote, POST retire the old
// version — and verify a serving client sees the new version.
func TestModelsAdminEndToEnd(t *testing.T) {
	depA, stream := fixtures(t)
	depB := fixturesB(t)
	short := stream[:len(stream)/16]

	depFile := filepath.Join(t.TempDir(), "retrained.dep")
	if err := depB.SaveFile(depFile); err != nil {
		t.Fatal(err)
	}

	opts := []Option{WithWorkers(2)}
	srv := New(nil, opts...)
	srv.Deploy(depA)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(10 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	mux := http.NewServeMux()
	mux.Handle("/debug/models", srv.ModelsHandler())
	mux.Handle("/debug/models/", srv.ModelsAdminHandler())
	admin := httptest.NewServer(mux)
	defer admin.Close()

	post := func(path string, params url.Values) (int, []registry.ModelInfo) {
		t.Helper()
		resp, err := http.PostForm(admin.URL+path, params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Models []registry.ModelInfo `json:"models"`
			Error  string               `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("POST %s: malformed response: %v", path, err)
		}
		if doc.Error != "" && resp.StatusCode == http.StatusOK {
			t.Fatalf("POST %s: 200 with error %q", path, doc.Error)
		}
		return resp.StatusCode, doc.Models
	}

	// Load the retrained file as a full-slice canary.
	status, models := post("/debug/models/load", url.Values{
		"file": {depFile}, "canary": {"1.0"},
	})
	if status != http.StatusOK {
		t.Fatalf("load+canary: status %d", status)
	}
	if len(models) != 1 || models[0].CanaryVersion != 2 || models[0].ActiveVersion != 1 {
		t.Fatalf("after load+canary: %+v", models)
	}
	key := models[0].Model

	// Re-loading the same file is idempotent (fingerprint dedupe): still
	// two versions, no third registration.
	if status, models = post("/debug/models/load", url.Values{"file": {depFile}}); status != http.StatusOK {
		t.Fatalf("reload: status %d", status)
	}
	if n := len(models[0].Versions); n != 2 {
		t.Fatalf("reload registered a duplicate: %d versions", n)
	}

	// A session under the canary: client output is v1's, candidate shadows.
	c, err := Dial(ln.Addr().String(), Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamChunks(t, c, short, 8192)

	// GET snapshot: the candidate has shadow tallies.
	resp, err := http.Get(admin.URL + "/debug/models")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Models []registry.ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var candidate *registry.VersionInfo
	for i := range doc.Models[0].Versions {
		if doc.Models[0].Versions[i].Version == 2 {
			candidate = &doc.Models[0].Versions[i]
		}
	}
	if candidate == nil || candidate.ShadowJudged == 0 {
		t.Fatalf("candidate did not shadow-judge the canaried session: %+v", doc.Models[0])
	}

	// Promote the candidate; the old version retires automatically and the
	// next client is served by v2.
	if status, models = post("/debug/models/promote", url.Values{
		"model": {key}, "version": {"2"},
	}); status != http.StatusOK || models[0].ActiveVersion != 2 {
		t.Fatalf("promote: status %d, models %+v", status, models)
	}
	c2, err := Dial(ln.Addr().String(), Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.ModelVersion(); got != 2 {
		t.Fatalf("post-promote client model_version = %d, want 2", got)
	}
	streamChunks(t, c2, short, 8192)

	// Lifecycle-rule violations surface as 400s, not server faults.
	if status, _ = post("/debug/models/retire", url.Values{
		"model": {key}, "version": {"2"},
	}); status != http.StatusBadRequest {
		t.Fatalf("retiring the active version: status %d, want 400", status)
	}
	if status, _ = post("/debug/models/canary", url.Values{
		"model": {key}, "version": {"99"}, "fraction": {"0.5"},
	}); status != http.StatusBadRequest {
		t.Fatalf("canarying an unknown version: status %d, want 400", status)
	}
}

// TestOpenPanicConfinedToAdmission: a deployment whose sessions panic in
// core.Open (an LSTM with OutB cut to 3 entries, deployed in process so
// LoadDeployment's checks never ran) costs only the admissions that open
// it. As the active version its hello gets an internal error frame; as a
// full-slice canary its shadow is dropped and the session is served on the
// good active version. Either way every registry hold is released.
func TestOpenPanicConfinedToAdmission(t *testing.T) {
	dep, stream := fixtures(t)
	broken := *dep.LSTM
	broken.OutB = broken.OutB[:3]
	bad := &core.Deployment{Profile: dep.Profile, Kind: dep.Kind, Mapper: dep.Mapper,
		LSTM: &broken, Pool: dep.Pool, TrainWindows: dep.TrainWindows}
	tel := obs.NewMetricsOnly()
	srv := New(nil, WithTelemetry(tel))
	srv.Deploy(bad)
	addr := serveLoopback(t, srv)
	reg := srv.Registry()
	key := registry.Key(dep)
	hello := Hello{Benchmark: fixBench, Model: "lstm"}

	_, err := Dial(addr, hello, nil)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != ErrInternal {
		t.Fatalf("hello on the panicking deployment: got %v, want an internal error frame", err)
	}

	// Promoting the good deployment retires v1, which leaves the registry
	// once the refused admission has released its hold.
	srv.Deploy(dep)
	deadline := time.Now().Add(5 * time.Second)
	for vi, held := lookupVersion(reg, key, 1); held; vi, held = lookupVersion(reg, key, 1) {
		if time.Now().After(deadline) {
			t.Fatalf("refused admission still holds v1: %+v", vi)
		}
		time.Sleep(10 * time.Millisecond)
	}
	canary, err := reg.Register(bad, registry.Meta{Origin: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.StartCanary(key, canary.ID(), 1.0); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr, hello, nil)
	if err != nil {
		t.Fatalf("session on the good deployment refused: %v", err)
	}
	if err := c.Send(stream[:len(stream)/8]); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Judged == 0 {
		t.Error("session on the good deployment judged nothing")
	}
	deadline = time.Now().Add(5 * time.Second)
	for vi := findVersion(t, reg, key, canary.ID()); vi.Refs != 0; vi = findVersion(t, reg, key, canary.ID()) {
		if time.Now().After(deadline) {
			t.Fatalf("dropped shadow still holds the canary: %+v", vi)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if vi := findVersion(t, reg, key, canary.ID()); vi.ShadowJudged != 0 {
		t.Errorf("the panicking canary shadow-judged %d vectors", vi.ShadowJudged)
	}
	if n := tel.Reg.Counter("rtad_serve_panics_total").Value(); n != 2 {
		t.Errorf("panic counter = %d, want 2 (one primary, one shadow open)", n)
	}
}
