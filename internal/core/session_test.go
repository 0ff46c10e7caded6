package core

import (
	"fmt"
	"reflect"
	"testing"

	"rtad/internal/attack"
	"rtad/internal/cpu"
	"rtad/internal/sim"
)

// runDetectionLegacy is a frozen copy of the batch detection run that
// predates Session: the plumbing (injector wrapping the pipeline as the CPU
// sink, one Run, one Flush). It anchors the determinism contract — the
// streaming Session must reproduce its event stream bit for bit, however
// the run is chunked.
func runDetectionLegacy(dep *Deployment, pcfg PipelineConfig, aspec AttackSpec, instr int64) (*DetectionResult, []Judged, sim.Time, error) {
	prog, err := dep.Profile.Generate()
	if err != nil {
		return nil, nil, 0, err
	}
	pipe, err := NewPipeline(dep, pcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if aspec.BurstLen <= 0 {
		aspec.BurstLen = 32768
	}
	if aspec.TriggerBranch <= 0 {
		aspec.TriggerBranch = instr / 40
	}
	inj, err := attack.New(attack.Config{
		TriggerBranch: aspec.TriggerBranch,
		BurstLen:      aspec.BurstLen,
		Pool:          dep.Pool,
		Segment:       aspec.Mimicry,
		Seed:          aspec.Seed,
	}, pipe)
	if err != nil {
		return nil, nil, 0, err
	}
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: inj})
	if _, err := c.Run(instr); err != nil {
		return nil, nil, 0, err
	}
	end := sim.CPUClock.Duration(c.Cycles())
	pipe.Flush(end)
	if err := pipe.Err(); err != nil {
		return nil, nil, 0, err
	}
	if !inj.Fired() {
		return nil, nil, 0, fmt.Errorf("core: attack never fired in %d instructions", instr)
	}
	res, err := summarise(dep, pipe, sim.CPUClock.Duration(inj.InjectedAtCycle))
	if err != nil {
		return nil, nil, 0, err
	}
	return res, pipe.Judged(), end, nil
}

// TestSessionMatchesLegacyBitForBit is the tentpole regression: the same
// (deployment, config, attack, budget) through the legacy batch plumbing,
// through one whole-run Session, and through a Session stepped in uneven
// chunks must yield identical Judged streams, identical final times and
// identical DetectionResults.
func TestSessionMatchesLegacyBitForBit(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	pcfg := PipelineConfig{CUs: 5, Stride: 512}
	aspec := AttackSpec{Seed: 7}
	const instr = 1_500_000

	legacyRes, legacyJudged, legacyEnd, err := runDetectionLegacy(dep, pcfg, aspec, instr)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacyJudged) < 10 {
		t.Fatalf("only %d judged vectors in the reference run", len(legacyJudged))
	}

	runSession := func(chunks []int64) (*DetectionResult, []Judged, sim.Time) {
		t.Helper()
		s, err := Open(Deployments{dep}, WithConfig(pcfg), WithAttack(aspec.Resolve(instr)))
		if err != nil {
			t.Fatal(err)
		}
		var done int64
		for _, c := range chunks {
			n, err := s.Step(c)
			if err != nil {
				t.Fatal(err)
			}
			done += n
		}
		if done != instr && !s.Halted() {
			t.Fatalf("session retired %d of %d instructions", done, instr)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return res, s.lanes[0].pipe.Judged(), sim.CPUClock.Duration(s.Cycles())
	}

	whole, wholeJudged, wholeEnd := runSession([]int64{instr})
	chunked, chunkedJudged, chunkedEnd := runSession([]int64{123_457, 300_001, 1, instr - 123_457 - 300_001 - 1})

	for name, got := range map[string][]Judged{"whole-run": wholeJudged, "chunked": chunkedJudged} {
		if !reflect.DeepEqual(got, legacyJudged) {
			t.Errorf("%s session Judged stream diverges from legacy (%d vs %d vectors)",
				name, len(got), len(legacyJudged))
		}
	}
	if wholeEnd != legacyEnd || chunkedEnd != legacyEnd {
		t.Errorf("final times diverge: legacy %v, whole %v, chunked %v",
			legacyEnd, wholeEnd, chunkedEnd)
	}
	if !reflect.DeepEqual(whole, legacyRes) {
		t.Errorf("whole-run DetectionResult diverges from legacy:\n got %+v\nwant %+v", whole, legacyRes)
	}
	if !reflect.DeepEqual(chunked, legacyRes) {
		t.Errorf("chunked DetectionResult diverges from legacy")
	}

	// And Detect drives the same whole-run session, so it must agree too.
	if got := detect(t, dep, pcfg, aspec, instr); !reflect.DeepEqual(got, legacyRes) {
		t.Errorf("Open+Detect diverges from legacy:\n got %+v\nwant %+v", got, legacyRes)
	}
}

// TestSessionStreamingConsumption checks the incremental read path: results
// consumed step by step, concatenated, equal the full judged stream, and
// each delivery batch arrives in nondecreasing judgment-time order.
func TestSessionStreamingConsumption(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	pcfg := PipelineConfig{CUs: 5, Stride: 256}
	s, err := Open(Deployments{dep}, WithConfig(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Judged
	const chunk = 150_000
	for i := 0; i < 8; i++ {
		if _, err := s.Step(chunk); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, s.Results()...)
	}
	if len(streamed) == 0 {
		t.Fatal("no judgments streamed before drain")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	streamed = append(streamed, s.Results()...)

	full := s.lanes[0].pipe.Judged()
	if !reflect.DeepEqual(streamed, full) {
		t.Fatalf("streamed %d judgments != pipeline's %d", len(streamed), len(full))
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].Rec.Done < streamed[i-1].Rec.Done {
			t.Fatalf("delivery %d out of time order", i)
		}
	}
	if s.Now() < streamed[len(streamed)-1].Rec.Done {
		t.Errorf("session time %v behind last delivery %v", s.Now(), streamed[len(streamed)-1].Rec.Done)
	}
	// Drained sessions refuse further work.
	if _, err := s.Step(1); err == nil {
		t.Error("Step after Drain succeeded")
	}
	if err := s.Inject(AttackSpec{BurstLen: 16}); err == nil {
		t.Error("Inject after Drain succeeded")
	}
}

// TestSessionMidRunInject arms the attack only after part of the run has
// already streamed — the capability the batch API never had.
func TestSessionMidRunInject(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	s, err := Open(Deployments{dep}, WithConfig(PipelineConfig{CUs: 5, Stride: 512}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(500_000); err != nil {
		t.Fatal(err)
	}
	s.Results() // consume the clean-window judgments
	if s.AttackFired() {
		t.Fatal("attack fired before being armed")
	}
	if err := s.Inject(AttackSpec{TriggerBranch: 1000, BurstLen: 32768, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(AttackSpec{BurstLen: 16}); err == nil {
		t.Error("double Inject succeeded")
	}
	if _, err := s.Step(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !s.AttackFired() {
		t.Fatal("mid-run attack never fired")
	}
	if s.InjectTime() == 0 {
		t.Fatal("no injection time recorded")
	}
	res, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if res.First == nil || res.First.FinalRetire < s.InjectTime() {
		t.Error("summary's first judged vector predates the injection")
	}
}

// TestDualSessionStepEquivalence pins the whole-run dual path to slicing:
// DetectDual's output must be reproducible via an explicitly stepped dual
// session.
func TestDualSessionStepEquivalence(t *testing.T) {
	elm := trainELMDeployment(t, "400.perlbench")
	lstmDep := func() *Deployment {
		dep := trainLSTMDeployment(t, "400.perlbench")
		return dep
	}()
	cfg := PipelineConfig{CUs: 5}
	aspec := AttackSpec{Seed: 5}
	const instr = 8_000_000

	open := func() *Session {
		t.Helper()
		s, err := Open(Deployments{elm, lstmDep}, WithConfig(cfg), WithAttack(aspec.Resolve(instr)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	batch, err := open().DetectDual(instr)
	if err != nil {
		t.Fatal(err)
	}

	s := open()
	for _, chunk := range []int64{3_000_000, 2_500_000, instr - 5_500_000} {
		if _, err := s.Step(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	elmRes, err := s.LaneSummary(0)
	if err != nil {
		t.Fatal(err)
	}
	lstmRes, err := s.LaneSummary(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(elmRes, batch.ELM) {
		t.Error("stepped dual session ELM result diverges from DetectDual")
	}
	if !reflect.DeepEqual(lstmRes, batch.LSTM) {
		t.Error("stepped dual session LSTM result diverges from DetectDual")
	}
	if s.SharedBusyAt() != batch.SharedBusyAt {
		t.Errorf("shared-engine horizon %v != batch %v", s.SharedBusyAt(), batch.SharedBusyAt)
	}
	if s.Lanes() != 2 {
		t.Errorf("dual session has %d lanes", s.Lanes())
	}
}

// TestSessionStageSnapshots checks the unified Stage interface: every chain
// block reports through it, and judged work implies observable activity.
func TestSessionStageSnapshots(t *testing.T) {
	dep := trainLSTMDeployment(t, "401.bzip2")
	s, err := Open(Deployments{dep}, WithConfig(PipelineConfig{CUs: 5, Stride: 256}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(800_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	snaps := s.Stages()
	want := []string{"ptm", "tpiu", "igm", "mcm"}
	if len(snaps) != len(want) {
		t.Fatalf("got %d stages, want %d", len(snaps), len(want))
	}
	for i, sn := range snaps {
		if sn.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, sn.Name, want[i])
		}
		if sn.MaxDepth <= 0 {
			t.Errorf("stage %q saw no traffic (MaxDepth %d)", sn.Name, sn.MaxDepth)
		}
	}
	res := detect(t, dep, PipelineConfig{CUs: 5, Stride: 256}, AttackSpec{Seed: 3}, 1_200_000)
	if len(res.Stages) != len(want) {
		t.Fatalf("DetectionResult carries %d stage snapshots", len(res.Stages))
	}
}
