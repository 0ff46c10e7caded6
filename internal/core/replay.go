package core

import (
	"errors"
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

// DefaultReplayGap is the synthesized inter-branch pacing of trace-replay
// sessions, in CPU cycles per branch event. Taken branches retire every
// handful of cycles on the in-order host model; 8 cycles keeps the replayed
// stream inside the trace path's sustainable bandwidth, matching the
// attack injector's fixed gadget-chain spacing of 8 cycles per event.
const DefaultReplayGap = 8

// MaxReplayGap bounds the replay pacing at 2^20 cycles per branch event:
// the replay clock is a picosecond sim.Time, and a client-chosen gap near
// the int64 range would wrap each event's timestamp to nonsense. At the
// bound a session reaches MaxReplayCycles after about 10^9 events.
const MaxReplayGap = 1 << 20

// MaxReplayCycles is where a trace-replay session's synthesized clock ends:
// FeedTrace refuses to synthesize a branch event at a later cycle.
//
// Derivation: every stage turns the replay cycle into a picosecond
// sim.Time at the CPU clock's 4000 ps per cycle, so the int64 time base
// holds 2^63 / 4000 ≈ 2.3×10^15 cycles (about 107 days). The bound is
// 2^50 ≈ 1.13×10^15 cycles, 52 days of simulated time, which leaves just
// over half the time base, 4.7×10^18 ps, as headroom for what lands after
// the last synthesized event: the attack burst's cycle offset (at most
// attack.MaxBurstLen events 8 cycles apart, 34 ms) and the judgment tail
// through the port, formatter, IGM, MCM queue and inference, which is
// microseconds to milliseconds. A session reaches the bound after about
// 1.4×10^14 events at DefaultReplayGap and 1.07×10^9 at MaxReplayGap.
const MaxReplayCycles = 1 << 50

// ErrReplayClockExhausted is the error FeedTrace returns, wrapped, once the
// stream would take the replay clock past MaxReplayCycles. The judgments
// made up to that point are delivered, and every later FeedTrace or Drain
// returns the same error.
var ErrReplayClockExhausted = errors.New("core: replay clock exhausted")

// traceFront is the trace-replay front-end: where a live session's victim
// CPU retires branches into the sink chain, a replay session re-synthesises
// retirements from a raw PTM byte stream (a branch-broadcast capture, what
// CaptureTrace records). The stream has no timestamps — CoreSight timing
// packets are optional and the RTAD capture omits them — so retirement
// times are synthesized on a fixed pacing: each branch event advances the
// replay clock by gap cycles plus whatever backpressure stall the trace
// path reports, exactly as the stall would have held back a live CPU.
//
// Every fed byte writes the decoder's state, and concurrent sessions run on
// different cores, so the front is padded to keep that state off any cache
// line another allocation shares: two served sessions' decoders that share
// a line stall each other on every byte.
type traceFront struct {
	_      [64]byte
	dec    ptm.StreamDecoder // its Bytes counts the stream bytes consumed
	gap    int64
	cycle  int64 // synthesized CPU cycle of the next retirement
	events int64 // synthesized branch retirements, each one's Seq
	_      [64]byte
}

func newTraceFront(gap int64) (*traceFront, error) {
	switch {
	case gap == 0:
		gap = DefaultReplayGap
	case gap < 0 || gap > MaxReplayGap:
		return nil, fmt.Errorf("core: replay gap %d cycles outside 1..%d", gap, MaxReplayGap)
	}
	return &traceFront{gap: gap}, nil
}

// ReplayStats reports a trace-replay session's progress: stream bytes
// consumed, branch events synthesized, and PTM protocol errors the decoder
// recovered from (it resynchronises at the next a-sync, like the hardware).
func (s *Session) ReplayStats() (bytes, events int64, decodeErrors int) {
	if s.front == nil {
		return 0, 0, 0
	}
	return s.front.dec.Bytes, s.front.events, s.front.dec.Errors
}

// FeedTrace pushes raw PTM trace bytes through the session. Only sessions
// opened with WithTraceInput accept it; Step is the live-CPU counterpart
// and the two front-ends are mutually exclusive. Chunking is free: feeding
// a stream byte-by-byte or in one call yields bit-identical judgments,
// because every synthesized time depends only on the decoded event sequence.
// Judgments completed so far are delivered to Results after each call. A
// stream that would run the replay clock past MaxReplayCycles ends the
// session with ErrReplayClockExhausted.
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
	f, head := s.front, s.head
	var end error
	// Only branch packets carry broadcast-mode branch events; NextBranch
	// decodes the rest (atoms, syncs) and drops them.
	for len(data) > 0 {
		n, target, kind, ok := f.dec.NextBranch(data)
		if !ok {
			break
		}
		data = data[n:]
		if f.cycle > MaxReplayCycles {
			end = fmt.Errorf("%w: branch event %d would retire at cycle %d, past MaxReplayCycles (%d)",
				ErrReplayClockExhausted, f.events, f.cycle, int64(MaxReplayCycles))
			break
		}
		stall := head.BranchRetired(cpu.BranchEvent{
			Seq:    f.events,
			Cycle:  f.cycle,
			Target: target,
			Kind:   kind,
			Taken:  true,
		})
		f.events++
		f.cycle += f.gap + stall
	}
	s.deliver()
	s.sample()
	if s.err == nil {
		s.err = end
	}
	return s.err
}

// CaptureTrace runs p's victim program for instr instructions and returns
// the raw branch-broadcast PTM stream a CoreSight probe would capture from
// it: the input FeedTrace replays.
func CaptureTrace(p workload.Profile, instr int64) ([]byte, error) {
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		stream = enc.EncodeInto(stream, ev)
		return 0
	})})
	if _, err := c.Run(instr); err != nil {
		return nil, err
	}
	return append(stream, enc.Flush()...), nil
}

// frontCycles is the victim-time cycle count regardless of front-end: the
// CPU's elapsed cycles, or the replay clock.
func (s *Session) frontCycles() int64 {
	if s.front != nil {
		return s.front.cycle
	}
	return s.cpu.Cycles()
}
