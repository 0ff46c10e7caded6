package core

import "rtad/internal/sim"

// Dual-model deployment: §II claims RTAD "is able to support many different
// ML models whereas others support fixed models... users may realize and
// deploy several models at their disposal". This file runs the ELM and the
// LSTM *simultaneously* against one victim: both models' images are
// resident in ML-MIAOW memory, each has its own IGM vector-generation
// context (window, stride, mapper table), and their MCM front-ends
// time-multiplex the one compute engine — so syscall-window judgments
// contend with branch-window judgments exactly as they would on the
// prototype. The wiring lives in openDual (open.go)
// and Session.DetectDual runs one to completion.

// DualResult pairs the two models' detection results from one victim run.
type DualResult struct {
	ELM  *DetectionResult
	LSTM *DetectionResult
	// Contention is the extra engine wait the busier model imposed on the
	// other, visible as elevated latencies relative to solo runs.
	SharedBusyAt sim.Time
}
