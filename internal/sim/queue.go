package sim

// QueueStats is the uniform occupancy/loss snapshot every buffering stage of
// the trace-delivery chain exposes: current depth, high-water mark, elements
// lost to overflow, and the accepted/dropped totals that make the stage's
// loss rate computable from one snapshot (loss = Dropped/(Accepted+Dropped)).
// Every stage models its buffer in closed form and builds the snapshot from
// its own counters. For lossless stages (the PTM port backpressures, the
// TPIU formatter always buffers, the IGM filters rather than drops) Dropped
// and Overflows are 0 by construction, and Accepted still counts admitted
// elements.
type QueueStats struct {
	Len       int
	MaxDepth  int
	Overflows int64
	// Accepted counts elements admitted into the stage's buffer.
	Accepted int64
	// Dropped counts elements refused by the stage. For a hardware FIFO
	// with no write-port backpressure this equals Overflows; stages with
	// other loss modes may count additional losses here.
	Dropped int64
}

// LossRate reports the fraction of offered elements the stage lost
// (0 when nothing was offered).
func (q QueueStats) LossRate() float64 {
	offered := q.Accepted + q.Dropped
	if offered == 0 {
		return 0
	}
	return float64(q.Dropped) / float64(offered)
}
