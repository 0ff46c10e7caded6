// Package registry is the zero-downtime model lifecycle behind rtadd: a
// versioned store of immutable core.Deployments with atomic hot-swap and
// canary shadow evaluation. Every trained model registered under a
// benchmark/model key becomes an immutable Version with a monotonic id;
// exactly one version per key is *active* at a time and new sessions are
// admitted on it, while sessions already in flight keep the version that
// welcomed them (refcounted) until they finish — so a swap never changes a
// judgment byte mid-stream and never rejects a frame.
//
// The promotion protocol is load → canary → promote → retire:
//
//	load     Register a candidate version (from a file, or retrained).
//	canary   StartCanary shadow-judges a configurable slice of incoming
//	         traffic on the candidate: shadowed sessions run a second,
//	         invisible session over the same trace bytes and the registry
//	         accumulates per-version anomaly-rate deltas (candidate vs the
//	         active baseline on the same traffic). Shadow judgments never
//	         reach clients.
//	promote  Promote atomically swaps the active version; the previous
//	         active is retired but keeps serving its in-flight sessions.
//	retire   Retire removes a candidate/retired version once its last
//	         session releases it.
//
// State transitions publish to rtad_serve_model_* metrics when a telemetry
// bundle is attached with Observe.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rtad/internal/core"
	"rtad/internal/obs"
)

// State is a version's lifecycle position.
type State int

// Version states. Candidate and Canary versions serve no client traffic;
// Retired versions only finish the in-flight sessions that still hold them.
const (
	StateCandidate State = iota
	StateCanary
	StateActive
	StateRetired
)

// String names the state (the /debug/models and metric label spelling).
func (s State) String() string {
	switch s {
	case StateCandidate:
		return "candidate"
	case StateCanary:
		return "canary"
	case StateActive:
		return "active"
	case StateRetired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Meta is the origin metadata the caller records with a version. The
// registry never reads clocks itself — timestamps are passed in, keeping
// registration deterministic under test.
type Meta struct {
	// Origin says where the weights came from: a file path, "trained", an
	// admin-endpoint upload — free-form, surfaced in /debug/models.
	Origin string
	// LoadedAt is when the caller loaded or finished training the model.
	LoadedAt time.Time
}

// Version is one immutable registered deployment. Identity fields are set
// at registration; state is guarded by the registry lock; the judgment
// counters are owned by the registry and updated under its lock too (they
// are bumped once per flushed judgment burst, not per judgment — far off
// any hot path).
type Version struct {
	id   int64
	key  string
	dep  *core.Deployment
	meta Meta
	fp   uint64

	// Registry-lock-guarded lifecycle.
	state State
	refs  int64 // admitted sessions (primary + shadow) still holding this version
	gone  bool  // retired version fully dropped from the registry

	// Live-traffic tally (sessions admitted on this version while active).
	sessions  int64
	judged    int64
	anomalies int64

	// Canary tally. shadow* counts this version's own shadow judgments;
	// baseline* counts the active version's judgments on exactly the same
	// shadowed sessions, so the delta compares like with like.
	shadowSessions    int64
	shadowJudged      int64
	shadowAnomalies   int64
	baselineJudged    int64
	baselineAnomalies int64
}

// ID is the version's monotonic registry-wide id.
func (v *Version) ID() int64 { return v.id }

// Key is the benchmark/model key the version is registered under.
func (v *Version) Key() string { return v.key }

// Deployment returns the immutable trained deployment.
func (v *Version) Deployment() *core.Deployment { return v.dep }

// model is the per-key lifecycle: the version history, the active version,
// and at most one canary candidate with its traffic slice.
type model struct {
	versions []*Version // registration order
	active   *Version
	canary   *Version
	fraction float64
	// admitted counts admissions on this key; the canary slice is carved
	// deterministically from it (every session n with
	// floor(n·f) > floor((n-1)·f) is shadowed).
	admitted int64
}

// Registry is the goroutine-safe version store. The zero value is not
// usable; call New.
type Registry struct {
	mu     sync.Mutex
	nextID int64
	keys   map[string]*model

	// Metrics (nil-safe until Observe). Gauges carry the model key — and
	// for the _info series, version and state — as embedded labels.
	tel             *obs.Telemetry
	mSwaps          *obs.Counter
	mLoads          *obs.Counter
	mRetired        *obs.Counter
	mCanarySessions *obs.Counter
	mShadowJudged   *obs.Counter
	mShadowAnomaly  *obs.Counter
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{keys: map[string]*model{}}
}

// Observe attaches a telemetry bundle: every state transition updates the
// rtad_serve_model_* gauges and counters from here on, and the current
// state is published immediately.
func (r *Registry) Observe(tel *obs.Telemetry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tel = tel
	r.mSwaps = tel.Counter("rtad_serve_model_swaps_total")
	r.mLoads = tel.Counter("rtad_serve_model_loads_total")
	r.mRetired = tel.Counter("rtad_serve_model_retired_total")
	r.mCanarySessions = tel.Counter("rtad_serve_canary_sessions_total")
	r.mShadowJudged = tel.Counter("rtad_serve_shadow_judgments_total")
	r.mShadowAnomaly = tel.Counter("rtad_serve_shadow_anomalies_total")
	for key, m := range r.keys {
		r.publishLocked(key, m)
	}
}

// publishLocked refreshes the key's gauges after a transition.
func (r *Registry) publishLocked(key string, m *model) {
	if r.tel == nil {
		return
	}
	active, canary := int64(0), int64(0)
	if m.active != nil {
		active = m.active.id
	}
	if m.canary != nil {
		canary = m.canary.id
	}
	r.tel.Gauge(`rtad_serve_model_active_version{model="` + key + `"}`).Set(active)
	r.tel.Gauge(`rtad_serve_model_canary_version{model="` + key + `"}`).Set(canary)
	live := int64(0)
	for _, v := range m.versions {
		if !v.gone {
			live++
		}
		val := int64(1)
		if v.gone {
			val = 0
		}
		r.tel.Gauge(fmt.Sprintf(`rtad_serve_model_info{model=%q,version="%d",state=%q}`,
			key, v.id, v.state.String())).Set(val)
		// Stale states of this version zero out so exactly one _info series
		// per version reads 1.
		for _, st := range []State{StateCandidate, StateCanary, StateActive, StateRetired} {
			if st == v.state {
				continue
			}
			r.tel.Gauge(fmt.Sprintf(`rtad_serve_model_info{model=%q,version="%d",state=%q}`,
				key, v.id, st.String())).Set(0)
		}
	}
	r.tel.Gauge(`rtad_serve_model_versions{model="` + key + `"}`).Set(live)
}

// Register stores dep as a new candidate version under its benchmark/model
// key and returns it. A deployment whose fingerprint matches a version the
// key already holds (any state but fully-retired) is not duplicated — the
// existing version is returned, which makes file-watch re-scans and repeated
// admin loads idempotent.
func (r *Registry) Register(dep *core.Deployment, meta Meta) (*Version, error) {
	if dep == nil {
		return nil, fmt.Errorf("registry: nil deployment")
	}
	key := Key(dep)
	fp := dep.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.keys[key]
	if m == nil {
		m = &model{}
		r.keys[key] = m
	}
	for _, v := range m.versions {
		if !v.gone && v.fp == fp {
			return v, nil
		}
	}
	r.nextID++
	v := &Version{id: r.nextID, key: key, dep: dep, meta: meta, fp: fp, state: StateCandidate}
	dep.Retain() // the registry's own hold, dropped when the version is dropped
	m.versions = append(m.versions, v)
	r.mLoads.Inc()
	r.publishLocked(key, m)
	return v, nil
}

// Key returns the benchmark/model key a deployment registers under.
func Key(dep *core.Deployment) string {
	model := "lstm"
	if dep.Kind == core.ModelELM {
		model = "elm"
	}
	return dep.Profile.Name + "/" + model
}

// find resolves key/id under the lock.
func (r *Registry) findLocked(key string, id int64) (*model, *Version, error) {
	m := r.keys[key]
	if m == nil {
		return nil, nil, fmt.Errorf("registry: no model %q", key)
	}
	for _, v := range m.versions {
		if v.id == id && !v.gone {
			return m, v, nil
		}
	}
	return nil, nil, fmt.Errorf("registry: model %q has no version %d", key, id)
}

// Promote atomically makes version id the active version of key: every
// session admitted after Promote returns is welcomed on it, while sessions
// in flight finish on the version that admitted them. The previous active
// version is retired (it drops from the registry once its last session
// releases it); a promoted canary stops shadowing.
func (r *Registry) Promote(key string, id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, v, err := r.findLocked(key, id)
	if err != nil {
		return err
	}
	if v.state == StateActive {
		return nil
	}
	if m.canary == v {
		m.canary, m.fraction = nil, 0
	}
	if prev := m.active; prev != nil {
		prev.state = StateRetired
		r.mRetired.Inc()
		r.dropIfDrainedLocked(m, prev)
		// Only a promotion that displaces a live active version is a swap;
		// the bootstrap promotion of a key's first version is not.
		r.mSwaps.Inc()
	}
	v.state = StateActive
	m.active = v
	r.publishLocked(key, m)
	return nil
}

// StartCanary shadow-evaluates version id on a fraction of key's incoming
// sessions (0 < fraction <= 1). One canary per key at a time; restarting
// with a new fraction retunes the slice, and the candidate's shadow tallies
// continue to accumulate.
func (r *Registry) StartCanary(key string, id int64, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("registry: canary fraction %v outside (0, 1]", fraction)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, v, err := r.findLocked(key, id)
	if err != nil {
		return err
	}
	if v.state == StateActive || v.state == StateRetired {
		return fmt.Errorf("registry: cannot canary %s version %d (%s)", key, id, v.state)
	}
	if m.active == nil {
		return fmt.Errorf("registry: %s has no active version to shadow against", key)
	}
	if m.canary != nil && m.canary != v {
		m.canary.state = StateCandidate
	}
	v.state = StateCanary
	m.canary, m.fraction = v, fraction
	r.publishLocked(key, m)
	return nil
}

// StopCanary returns key's canary (if id is it) to plain candidate.
func (r *Registry) StopCanary(key string, id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, v, err := r.findLocked(key, id)
	if err != nil {
		return err
	}
	if m.canary != v {
		return fmt.Errorf("registry: %s version %d is not the canary", key, id)
	}
	v.state = StateCandidate
	m.canary, m.fraction = nil, 0
	r.publishLocked(key, m)
	return nil
}

// Retire drops a candidate, canary, or already-retired version: no new
// shadow traffic reaches it, and it leaves the registry once (and if) its
// last session releases it. The active version cannot be retired directly —
// promote its replacement instead, which is what keeps the key serving at
// every instant.
func (r *Registry) Retire(key string, id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, v, err := r.findLocked(key, id)
	if err != nil {
		return err
	}
	if v.state == StateActive {
		return fmt.Errorf("registry: version %d is active; promote a replacement to retire it", id)
	}
	if m.canary == v {
		m.canary, m.fraction = nil, 0
	}
	if v.state != StateRetired {
		v.state = StateRetired
		r.mRetired.Inc()
	}
	r.dropIfDrainedLocked(m, v)
	r.publishLocked(key, m)
	return nil
}

// dropIfDrainedLocked releases the registry's deployment hold once a
// retired version has no sessions left.
func (r *Registry) dropIfDrainedLocked(m *model, v *Version) {
	if v.state == StateRetired && v.refs == 0 && !v.gone {
		v.gone = true
		v.dep.Release()
	}
}

// Acquire admits one session on key's active version: the version is
// returned with a hold the caller must Release when the session ends, and
// shadow reports whether this session falls in the canary slice (in which
// case canary is the candidate version, also held). The slice is carved
// deterministically from the admission sequence — over any window of
// admissions, the shadowed share converges on the configured fraction.
func (r *Registry) Acquire(key string) (active, canary *Version, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.keys[key]
	if m == nil || m.active == nil {
		return nil, nil, fmt.Errorf("registry: no active model %q", key)
	}
	v := m.active
	v.refs++
	v.sessions++
	v.dep.Retain()
	if m.canary != nil {
		n := m.admitted + 1
		if int64(float64(n)*m.fraction) > int64(float64(n-1)*m.fraction) {
			canary = m.canary
			canary.refs++
			canary.shadowSessions++
			canary.dep.Retain()
			r.mCanarySessions.Inc()
		}
	}
	m.admitted++
	return v, canary, nil
}

// ActiveKeys lists the keys that currently have an active version — the
// set a server can admit sessions on.
func (r *Registry) ActiveKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.keys))
	for k, m := range r.keys {
		if m.active != nil {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Active returns key's active version without taking a hold (introspection
// only — admission must go through Acquire).
func (r *Registry) Active(key string) (*Version, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.keys[key]
	if m == nil || m.active == nil {
		return nil, false
	}
	return m.active, true
}

// Release returns a session's hold on v. The final release of a retired
// version drops it from the registry.
func (r *Registry) Release(v *Version) {
	if v == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.refs <= 0 {
		panic("registry: Release without a matching Acquire")
	}
	v.refs--
	v.dep.Release()
	if m := r.keys[v.key]; m != nil {
		r.dropIfDrainedLocked(m, v)
		r.publishLocked(v.key, m)
	}
}

// RecordJudgments tallies a primary session's delivered judgments against
// its admitted version (live anomaly rate per version).
func (r *Registry) RecordJudgments(v *Version, judged, anomalies int64) {
	if v == nil || judged == 0 {
		return
	}
	r.mu.Lock()
	v.judged += judged
	v.anomalies += anomalies
	r.mu.Unlock()
}

// RecordShadow tallies one shadowed burst: the candidate's own shadow
// judgments plus the active baseline's judgments over the same trace bytes,
// so Snapshot can report the anomaly-rate delta on identical traffic.
func (r *Registry) RecordShadow(canary *Version, shadowJudged, shadowAnomalies, baseJudged, baseAnomalies int64) {
	if canary == nil {
		return
	}
	r.mu.Lock()
	canary.shadowJudged += shadowJudged
	canary.shadowAnomalies += shadowAnomalies
	canary.baselineJudged += baseJudged
	canary.baselineAnomalies += baseAnomalies
	r.mu.Unlock()
	r.mShadowJudged.Add(shadowJudged)
	r.mShadowAnomaly.Add(shadowAnomalies)
}

// VersionInfo is one version's introspection snapshot (/debug/models row).
type VersionInfo struct {
	Version     int64     `json:"version"`
	State       string    `json:"state"`
	Origin      string    `json:"origin,omitempty"`
	LoadedAt    time.Time `json:"loaded_at,omitzero"`
	Fingerprint string    `json:"fingerprint"`
	Refs        int64     `json:"refs"`
	Sessions    int64     `json:"sessions"`
	Judged      int64     `json:"judged"`
	Anomalies   int64     `json:"anomalies"`
	AnomalyRate float64   `json:"anomaly_rate"`

	// Canary figures (present once the version has shadowed traffic).
	ShadowSessions      int64   `json:"shadow_sessions,omitempty"`
	ShadowJudged        int64   `json:"shadow_judged,omitempty"`
	ShadowAnomalies     int64   `json:"shadow_anomalies,omitempty"`
	ShadowAnomalyRate   float64 `json:"shadow_anomaly_rate,omitempty"`
	BaselineJudged      int64   `json:"baseline_judged,omitempty"`
	BaselineAnomalies   int64   `json:"baseline_anomalies,omitempty"`
	BaselineAnomalyRate float64 `json:"baseline_anomaly_rate,omitempty"`
	// AnomalyRateDelta is shadow − baseline on the shadowed traffic: the
	// promotion gate. A retrained model that silently regressed shows up
	// here as a positive delta before it ever judges a client.
	AnomalyRateDelta float64 `json:"anomaly_rate_delta"`
}

// ModelInfo is one key's introspection snapshot.
type ModelInfo struct {
	Model          string        `json:"model"`
	ActiveVersion  int64         `json:"active_version"`
	CanaryVersion  int64         `json:"canary_version,omitempty"`
	CanaryFraction float64       `json:"canary_fraction,omitempty"`
	Versions       []VersionInfo `json:"versions"`
}

func rate(anomalies, judged int64) float64 {
	if judged == 0 {
		return 0
	}
	return float64(anomalies) / float64(judged)
}

// Snapshot renders the whole registry, keys sorted, versions in
// registration order (dropped versions omitted).
func (r *Registry) Snapshot() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.keys))
	for k := range r.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ModelInfo, 0, len(keys))
	for _, k := range keys {
		m := r.keys[k]
		mi := ModelInfo{Model: k}
		if m.active != nil {
			mi.ActiveVersion = m.active.id
		}
		if m.canary != nil {
			mi.CanaryVersion = m.canary.id
			mi.CanaryFraction = m.fraction
		}
		for _, v := range m.versions {
			if v.gone {
				continue
			}
			vi := VersionInfo{
				Version:     v.id,
				State:       v.state.String(),
				Origin:      v.meta.Origin,
				LoadedAt:    v.meta.LoadedAt,
				Fingerprint: fmt.Sprintf("%016x", v.fp),
				Refs:        v.refs,
				Sessions:    v.sessions,
				Judged:      v.judged,
				Anomalies:   v.anomalies,
				AnomalyRate: rate(v.anomalies, v.judged),

				ShadowSessions:      v.shadowSessions,
				ShadowJudged:        v.shadowJudged,
				ShadowAnomalies:     v.shadowAnomalies,
				ShadowAnomalyRate:   rate(v.shadowAnomalies, v.shadowJudged),
				BaselineJudged:      v.baselineJudged,
				BaselineAnomalies:   v.baselineAnomalies,
				BaselineAnomalyRate: rate(v.baselineAnomalies, v.baselineJudged),
			}
			vi.AnomalyRateDelta = vi.ShadowAnomalyRate - vi.BaselineAnomalyRate
			mi.Versions = append(mi.Versions, vi)
		}
		out = append(out, mi)
	}
	return out
}
