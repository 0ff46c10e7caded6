package core

import (
	"fmt"

	"rtad/internal/sim"
)

// Dual-model deployment: §II claims RTAD "is able to support many different
// ML models whereas others support fixed models... users may realize and
// deploy several models at their disposal". This file runs the ELM and the
// LSTM *simultaneously* against one victim: both models' images are
// resident in ML-MIAOW memory, each has its own IGM vector-generation
// context (window, stride, mapper table), and their MCM front-ends
// time-multiplex the one compute engine and share the SoC interconnect —
// so syscall-window judgments contend with branch-window judgments exactly
// as they would on the prototype. The wiring lives in openDual (open.go)
// and Session.DetectDual runs one to completion.

// DualResult pairs the two models' detection results from one victim run.
type DualResult struct {
	ELM  *DetectionResult
	LSTM *DetectionResult
	// Contention is the extra engine wait the busier model imposed on the
	// other, visible as elevated latencies relative to solo runs.
	SharedBusyAt sim.Time
}

// summarise builds a DetectionResult from a finished pipeline.
func summarise(dep *Deployment, pipe *Pipeline, injectTime sim.Time) (*DetectionResult, error) {
	res := &DetectionResult{
		Benchmark:  dep.Profile.Name,
		Kind:       dep.Kind,
		CUs:        pipe.cfg.CUs,
		InjectTime: injectTime,
		Judged:     len(pipe.Judged()),
		Dropped:    pipe.MCMStats().Dropped,
		MaxOcc:     pipe.MCMStats().MaxOccupancy,
		Stages:     SnapshotStages(pipe.Stages()),
	}
	var latSum sim.Time
	var latN int64
	for i := range pipe.judged {
		j := &pipe.judged[i]
		if j.FinalRetire < injectTime {
			continue
		}
		if res.First == nil {
			res.First = j
			res.Latency = j.JudgmentLatency()
		}
		latSum += j.JudgmentLatency()
		latN++
		if j.Rec.Judgment.Anomaly {
			res.Detected = true
			if res.IRQTime == 0 {
				res.IRQTime = j.Rec.IRQAt
			}
		}
	}
	if latN > 0 {
		res.MeanLatency = latSum / sim.Time(latN)
	}
	if res.First == nil {
		return nil, fmt.Errorf("no post-injection vector judged on %s", dep.Profile.Name)
	}
	return res, nil
}
