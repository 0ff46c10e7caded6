package core

import "rtad/internal/sim"

// Stage is one block of the CPU→PTM→TPIU→IGM→MCM trace-delivery chain,
// viewed through the uniform occupancy/loss statistics every buffering
// stage keeps (sim.QueueStats: Len/MaxDepth/Overflows plus the
// accepted/dropped totals). The pipeline, the dual-model fan-out and the
// Fig 7 measurement path all report stage pressure through this one
// interface instead of per-stage ad hoc getters.
type Stage interface {
	// StageName is a short stable identifier ("ptm", "tpiu", "igm", "mcm").
	StageName() string
	// QueueStats snapshots the stage's buffer occupancy and losses.
	QueueStats() sim.QueueStats
}

// StageSnapshot is one stage's statistics captured at a point in time,
// serialisable for the experiment reports.
type StageSnapshot struct {
	Name string `json:"name"`
	sim.QueueStats
}

// SnapshotStages captures every stage's current statistics in chain order.
func SnapshotStages(stages []Stage) []StageSnapshot {
	out := make([]StageSnapshot, len(stages))
	for i, st := range stages {
		out[i] = StageSnapshot{Name: st.StageName(), QueueStats: st.QueueStats()}
	}
	return out
}

// Stages lists the pipeline's trace-delivery blocks in chain order.
func (p *Pipeline) Stages() []Stage {
	if r := p.ref; r != nil {
		return []Stage{refStage{"ptm", r.port.stats}, refStage{"tpiu", r.tpiu.stats}, p.ig, p.mod}
	}
	return []Stage{p.port, p.fmtr, p.ig, p.mod}
}
