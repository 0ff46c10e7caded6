package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rtad/internal/obs"
)

// TestTelemetryObservationOnly checks the zero-perturbation contract: the
// same detection run with and without a telemetry bundle produces identical
// DetectionResults, and the instrumented run fills the Fig 8 judgment
// latency histogram.
func TestTelemetryObservationOnly(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	aspec := AttackSpec{Seed: 7}
	const instr = 1_500_000

	plain := detect(t, dep, PipelineConfig{CUs: 5, Stride: 512}, aspec, instr)
	tel := obs.New()
	observed := detect(t, dep, PipelineConfig{CUs: 5, Stride: 512, Telemetry: tel}, aspec, instr)
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("telemetry perturbed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}

	h := tel.Reg.Histogram("rtad_judgment_latency_us", JudgmentLatencyBuckets)
	if h.Count() == 0 {
		t.Fatal("judgment latency histogram is empty after an instrumented run")
	}
	if got := tel.Reg.Counter("rtad_judgments_total").Value(); got != h.Count() {
		t.Errorf("judgments counter %d != histogram count %d", got, h.Count())
	}
	if tel.Tracer.Events() == 0 {
		t.Fatal("no trace events recorded")
	}
	var buf bytes.Buffer
	if err := tel.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rtad_judgment_latency_us_bucket", "rtad_ptm_bytes_total",
		"rtad_tpiu_frames_total", "rtad_igm_vectors_total",
		"rtad_mcm_accepted_total", "rtad_gpu_dispatches_total",
		"rtad_cpu_cycles", "rtad_sim_events_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestTraceStepSlicingInvariance pins the tracer design rule: every trace
// event is anchored on a sim time produced by the stages themselves, never
// on a Step() boundary, so the exported trace bytes are identical however
// the caller slices the run. Final metric values must agree too.
func TestTraceStepSlicingInvariance(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	aspec := AttackSpec{TriggerBranch: 40_000, BurstLen: 32768, Seed: 7}
	const instr = 1_500_000

	run := func(chunks []int64) (trace, metrics []byte) {
		t.Helper()
		tel := obs.New()
		s, err := Open(Deployments{dep},
			WithConfig(PipelineConfig{CUs: 5, Stride: 512, Telemetry: tel}), WithAttack(aspec))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if _, err := s.Step(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if !s.AttackFired() {
			t.Fatal("attack never fired")
		}
		var tb, mb bytes.Buffer
		if err := tel.Tracer.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		if err := tel.Reg.WritePrometheus(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}

	wholeTrace, wholeMetrics := run([]int64{instr})
	chunkTrace, chunkMetrics := run([]int64{123_457, 300_001, 1, instr - 123_457 - 300_001 - 1})

	if !bytes.Equal(wholeTrace, chunkTrace) {
		t.Errorf("trace bytes depend on Step slicing (%d vs %d bytes)",
			len(wholeTrace), len(chunkTrace))
	}
	if !bytes.Equal(wholeMetrics, chunkMetrics) {
		t.Errorf("final metrics depend on Step slicing:\n--- whole\n%s\n--- chunked\n%s",
			wholeMetrics, chunkMetrics)
	}
	if len(wholeTrace) == 0 || !bytes.Contains(wholeTrace, []byte("attack_injected")) {
		t.Error("trace missing the attack_injected instant")
	}
}

// TestFleetTelemetryWorkerInvariance checks the serial-merge contract: the
// fleet's aggregate registry is bit-identical at any worker count (the
// rtad_fleet_workers gauge line is the one legitimate difference).
func TestFleetTelemetryWorkerInvariance(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	jobs := []Job{
		{Dep: dep, Config: PipelineConfig{CUs: 5, Stride: 512}, Attack: AttackSpec{Seed: 7}, Instr: 1_500_000},
		{Dep: dep, Config: PipelineConfig{CUs: 1, Stride: 512}, Attack: AttackSpec{Seed: 9}, Instr: 1_500_000},
	}

	expose := func(workers int) string {
		t.Helper()
		tel := obs.NewMetricsOnly()
		f := NewFleet(workers)
		f.Observe(tel)
		if _, err := f.Detect(jobs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tel.Reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var keep []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "rtad_fleet_workers") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}

	serial := expose(1)
	wide := expose(4)
	if serial != wide {
		t.Errorf("fleet metrics depend on worker count:\n--- 1 worker\n%s\n--- 4 workers\n%s", serial, wide)
	}
	if !strings.Contains(serial, "rtad_judgment_latency_us_bucket") {
		t.Error("fleet aggregate missing the judgment latency histogram")
	}
	if !strings.Contains(serial, "rtad_fleet_jobs_done_total 2") {
		t.Error("fleet aggregate missing job completion counter")
	}
}

// TestDualSessionLaneTelemetry checks the per-lane namespacing: a dual
// ELM+LSTM session registers lane-suffixed metrics and lane-prefixed tracks
// over one shared registry and tracer.
func TestDualSessionLaneTelemetry(t *testing.T) {
	elm := trainELMDeployment(t, "458.sjeng")
	lstm := trainLSTMDeployment(t, "458.sjeng")
	tel := obs.New()
	s, err := Open(Deployments{elm, lstm}, WithConfig(PipelineConfig{CUs: 5, Telemetry: tel}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(200_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	snap := tel.Reg.Snapshot()
	for _, want := range []string{"rtad_judgment_latency_us_elm", "rtad_judgment_latency_us_lstm"} {
		if _, ok := snap.Histograms[want]; !ok {
			t.Errorf("registry missing per-lane histogram %s", want)
		}
	}
	tracks := strings.Join(tel.Tracer.TrackNames(), " ")
	for _, want := range []string{"fabric/elm/ptm", "fabric/lstm/ptm", "fabric/elm/mcm", "fabric/lstm/mcm"} {
		if !strings.Contains(tracks, want) {
			t.Errorf("tracer missing lane track %s (have: %s)", want, tracks)
		}
	}
}
