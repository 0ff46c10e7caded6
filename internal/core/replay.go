package core

import (
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
)

// DefaultReplayGap is the synthesized inter-branch pacing of trace-replay
// sessions, in CPU cycles per branch event. Taken branches retire every
// handful of cycles on the in-order host model; 8 cycles keeps the replayed
// stream inside the trace path's sustainable bandwidth, matching the
// attack injector's default gadget-chain spacing.
const DefaultReplayGap = 8

// MaxReplayGap bounds the replay pacing at 2^20 cycles per branch event:
// the replay clock is a picosecond sim.Time, and a client-chosen gap near
// the int64 range would wrap each event's timestamp to nonsense. At the
// bound a session still runs about 2×10^9 events before the clock wraps.
const MaxReplayGap = 1 << 20

// traceFront is the trace-replay front-end: where a live session's victim
// CPU retires branches into the sink chain, a replay session re-synthesises
// retirements from a raw PTM byte stream (branch-broadcast capture, the
// format cmd/tracegen and internal/tracefile carry). The stream has no
// timestamps — CoreSight timing packets are optional and the RTAD capture
// omits them — so retirement times are synthesized on a fixed pacing: each
// branch event advances the replay clock by gap cycles plus whatever
// backpressure stall the trace path reports, exactly as the stall would
// have held back a live CPU.
type traceFront struct {
	dec   *ptm.StreamDecoder
	gap   int64
	cycle int64 // synthesized CPU cycle of the next retirement
	seq   int64
	// events counts synthesized branch retirements; bytes counts stream
	// bytes consumed.
	events int64
	bytes  int64
}

func newTraceFront(gap int64) (*traceFront, error) {
	switch {
	case gap == 0:
		gap = DefaultReplayGap
	case gap < 0 || gap > MaxReplayGap:
		return nil, fmt.Errorf("core: replay gap %d cycles outside 1..%d", gap, MaxReplayGap)
	}
	return &traceFront{dec: ptm.NewStreamDecoder(), gap: gap}, nil
}

// ReplayStats reports a trace-replay session's progress: stream bytes
// consumed, branch events synthesized, and PTM protocol errors the decoder
// recovered from (it resynchronises at the next a-sync, like the hardware).
func (s *Session) ReplayStats() (bytes, events int64, decodeErrors int) {
	if s.front == nil {
		return 0, 0, 0
	}
	return s.front.bytes, s.front.events, s.front.dec.Errors
}

// FeedTrace pushes raw PTM trace bytes through the session. Only sessions
// opened with WithTraceInput accept it; Step is the live-CPU counterpart
// and the two front-ends are mutually exclusive. Chunking is free: feeding
// a stream byte-by-byte or in one call yields bit-identical judgments,
// because every synthesized time depends only on the decoded event sequence.
// Judgments completed so far are delivered to Results after each call.
func (s *Session) FeedTrace(data []byte) error {
	if s.front == nil {
		return fmt.Errorf("core: session has a live CPU front-end (open with WithTraceInput to feed traces)")
	}
	if s.drained {
		return fmt.Errorf("core: session already drained")
	}
	if s.err != nil {
		return s.err
	}
	f := s.front
	for _, b := range data {
		f.bytes++
		pkt, ok := f.dec.FeedByte(b)
		if !ok || pkt.Type != ptm.PktBranch {
			// Atoms/i-sync/a-sync packets carry no broadcast-mode branch
			// events; the IGM's own decoder sees them again after
			// re-encoding, so nothing is lost by skipping them here.
			continue
		}
		kind := cpu.KindDirect
		if pkt.Exc {
			kind = pkt.Kind
		}
		ev := cpu.BranchEvent{
			Seq:    f.seq,
			Cycle:  f.cycle,
			Target: pkt.Addr,
			Kind:   kind,
			Taken:  true,
		}
		f.seq++
		f.events++
		stall := s.swap.BranchRetired(ev)
		f.cycle += f.gap + stall
	}
	s.deliver()
	s.sample()
	return s.err
}

// frontCycles is the victim-time cycle count regardless of front-end: the
// CPU's elapsed cycles, or the replay clock.
func (s *Session) frontCycles() int64 {
	if s.front != nil {
		return s.front.cycle
	}
	return s.cpu.Cycles()
}
