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
// latency histogram and counts each judgment once as a delivered event.
func TestTelemetryObservationOnly(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	aspec := AttackSpec{Seed: 7}
	const instr = 1_500_000

	plain := detect(t, dep, PipelineConfig{CUs: 5, Stride: 512}, aspec, instr)
	tel := obs.New()
	observed := detect(t, dep, PipelineConfig{CUs: 5, Stride: 512}, aspec, instr, WithTelemetry(tel))
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("telemetry perturbed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}

	h := tel.Reg.Histogram("rtad_judgment_latency_us", JudgmentLatencyBuckets)
	if h.Count() == 0 {
		t.Fatal("judgment latency histogram is empty after an instrumented run")
	}
	judgments := tel.Reg.Counter("rtad_judgments_total").Value()
	if judgments != h.Count() {
		t.Errorf("judgments counter %d != histogram count %d", judgments, h.Count())
	}
	// A single-lane session delivers every judgment exactly once.
	if got := tel.Reg.Counter("rtad_sim_events_total").Value(); got != judgments {
		t.Errorf("delivered events %d != judgments %d", got, judgments)
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
			WithConfig(PipelineConfig{CUs: 5, Stride: 512}), WithTelemetry(tel), WithAttack(aspec))
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

// TestDualSessionLaneTelemetry checks the per-lane namespacing: a dual
// ELM+LSTM session registers lane-suffixed metrics and lane-prefixed tracks
// over one shared registry and tracer.
func TestDualSessionLaneTelemetry(t *testing.T) {
	elm := trainELMDeployment(t, "458.sjeng")
	lstm := trainLSTMDeployment(t, "458.sjeng")
	tel := obs.New()
	s, err := Open(Deployments{elm, lstm}, WithConfig(PipelineConfig{CUs: 5}), WithTelemetry(tel))
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
