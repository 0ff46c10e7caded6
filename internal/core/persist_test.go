package core

import (
	"bytes"
	"path/filepath"
	"testing"
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
	if got.Profile.Name != dep.Profile.Name || got.Kind != dep.Kind {
		t.Fatal("identity fields lost")
	}
	if got.Mapper.Size() != dep.Mapper.Size() {
		t.Fatalf("mapper size %d, want %d", got.Mapper.Size(), dep.Mapper.Size())
	}
	if got.LSTM.Threshold != dep.LSTM.Threshold {
		t.Error("threshold lost")
	}
	if len(got.Pool) != len(dep.Pool) {
		t.Error("pool lost")
	}

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
	if got.ELM == nil || got.Translate == nil {
		t.Fatal("ELM deployment not fully rebuilt")
	}
	if got.Translate(1024+7) != 7 {
		t.Error("protocol converter not rebuilt")
	}
	if !got.Mapper.HasSyscalls() {
		t.Error("syscall admission flag lost")
	}
}

func TestLoadDeploymentRejectsGarbage(t *testing.T) {
	if _, err := LoadDeployment(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage accepted")
	}
}
