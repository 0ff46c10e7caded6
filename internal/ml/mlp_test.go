package ml

import (
	"testing"
	"time"
)

func TestMLPMatchesELMAccuracy(t *testing.T) {
	cfg := DefaultELMConfig()
	train := markovWindows(cfg.Vocab, cfg.Window, 3000, 61)
	test := markovWindows(cfg.Vocab, cfg.Window, 800, 62)

	elmStart := time.Now()
	elm, err := TrainELM(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	elmTime := time.Since(elmStart)

	mlpStart := time.Now()
	mlp, err := TrainMLP(cfg, train, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mlpTime := time.Since(mlpStart)

	accELM := elm.Accuracy(test)
	accMLP := mlp.Accuracy(test)
	t.Logf("accuracy: ELM %.3f (train %v), MLP %.3f (train %v)", accELM, elmTime, accMLP, mlpTime)

	// Both must beat chance decisively (the chain is learnable).
	chance := 1.0 / float64(cfg.Vocab)
	if accELM < 4*chance || accMLP < 4*chance {
		t.Errorf("models failed to learn: ELM %.3f, MLP %.3f (chance %.3f)", accELM, accMLP, chance)
	}
	// "Similar accuracy": within a reasonable band of each other.
	if accMLP < accELM*0.7 {
		t.Errorf("MLP accuracy %.3f far below ELM %.3f", accMLP, accELM)
	}
	// The paper's lightweight claim: the ELM's one-shot solve is much
	// cheaper than epochs of backprop.
	if elmTime*2 > mlpTime {
		t.Logf("note: ELM train %v not clearly cheaper than MLP %v on this machine", elmTime, mlpTime)
	}
}

func TestMLPDeploysOnSameShape(t *testing.T) {
	cfg := DefaultELMConfig()
	mlp, err := TrainMLP(cfg, markovWindows(cfg.Vocab, cfg.Window, 300, 9), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Identical deployment surface: same matrices and scoring path.
	if mlp.W1.Rows != cfg.Hidden || mlp.BetaT.Rows != cfg.Vocab {
		t.Fatal("MLP shape differs from the deployed kernel shape")
	}
	w := markovWindows(cfg.Vocab, cfg.Window, 1, 10)[0]
	if s := mlp.Score(w); s < 0 {
		t.Errorf("margin score %g negative", s)
	}
}

func TestMLPValidation(t *testing.T) {
	cfg := DefaultELMConfig()
	if _, err := TrainMLP(cfg, nil, 2, 0.1); err == nil {
		t.Error("no data accepted")
	}
	bad := markovWindows(cfg.Vocab, cfg.Window, 10, 1)
	bad[3][2] = -1
	if _, err := TrainMLP(cfg, bad, 2, 0.1); err == nil {
		t.Error("invalid class accepted")
	}
	cfg.Hidden = 0
	if _, err := TrainMLP(cfg, bad, 2, 0.1); err == nil {
		t.Error("bad config accepted")
	}
}
