package core

import (
	"reflect"
	"testing"
)

// TestSessionQuantumBoundariesBitIdentical drives the victim with
// pathological quanta — including 1-instruction steps that land inside
// every translated block and fused pair — and requires the judgment
// stream, cycle and instret accounting to stay byte-identical to a single
// full-budget run. This pins the tiered engine's exact maxInstr contract
// across partial-block boundaries at the session layer (session.go's
// quantum loop).
func TestSessionQuantumBoundariesBitIdentical(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	const instr = 200_000
	spec := AttackSpec{BurstLen: 4096, Seed: 7}

	runWith := func(quantum int64) (*Session, []Judged) {
		t.Helper()
		s, err := Open(Deployments{dep},
			WithConfig(PipelineConfig{CUs: 2}),
			WithAttack(spec.Resolve(instr)))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for total < instr {
			q := quantum
			if rem := instr - total; q > rem {
				q = rem
			}
			n, err := s.Step(q)
			if err != nil {
				t.Fatal(err)
			}
			total += n
			if n == 0 {
				break
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s, s.Results()
	}

	ref, refJudged := runWith(instr)
	if len(refJudged) == 0 {
		t.Fatal("reference run produced no judgments")
	}
	for _, q := range []int64{1, 3, 1024} {
		s, judged := runWith(q)
		if s.frontCycles() != ref.frontCycles() || s.Instret() != ref.Instret() {
			t.Errorf("quantum %d: cycles/instret %d/%d, want %d/%d",
				q, s.frontCycles(), s.Instret(), ref.frontCycles(), ref.Instret())
		}
		if !reflect.DeepEqual(judged, refJudged) {
			t.Errorf("quantum %d: judgment stream diverged (%d vs %d judgments)",
				q, len(judged), len(refJudged))
		}
	}
}
