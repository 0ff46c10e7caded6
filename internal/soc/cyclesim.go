// Package soc contains a cycle-stepped co-simulation of RTAD's trace
// delivery path. internal/core computes the pipeline's timing analytically
// (availability-time algebra per stage); this package re-implements the
// same hardware — the PTM output FIFO with its drain threshold, the TPIU
// formatter on the 32-bit port, IGM's four trace-analyzer units, the P2S
// converter and the IVG pipeline — as state machines advanced one 125 MHz
// fabric cycle at a time. Running both against the same retired-branch
// record and requiring the same vectors at (nearly) the same instants is
// the cross-check that the analytic model is not just self-consistent but
// equivalent to a straightforward RTL-style implementation.
package soc

import (
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/tpiu"
)

// Config sizes the cycle model to match a core.Pipeline configuration.
type Config struct {
	Mapper         *igm.AddressMap
	Window         int
	Stride         int
	DrainThreshold int
}

// Vector is one IVG output with its cycle-model emission time.
type Vector struct {
	Seq     int64
	At      sim.Time
	Classes []int32
}

// Result is a finished co-simulation.
type Result struct {
	Vectors []Vector
	Cycles  int64 // fabric cycles simulated
	Bytes   int64 // trace bytes moved through the port
}

// cyclesim state machines. All queues are modelled at byte/word granularity
// and advanced in a single tick() per fabric cycle.
type cyclesim struct {
	cfg    Config
	clk    *sim.Clock
	now    sim.Time
	enc    *ptm.Encoder
	events []cpu.BranchEvent
	nextEv int

	// PTM output stage: hold-back buffer, then the 4-byte-per-cycle port.
	holdback []byte
	portQ    []byte

	// TPIU formatter state.
	frameBuf []byte
	wordQ    []uint32

	// IGM: the PFT decoder consumes up to 4 bytes per cycle (four TA
	// units); decoded addresses serialise through P2S at one per cycle,
	// then take two pipeline cycles through mapper + vector encoder.
	deframer *tpiu.Deframer
	dec      *ptm.StreamDecoder
	taQ      []byte
	addrQ    []uint32
	// ivgPipe holds addresses in flight through the 2-stage IVG.
	ivgPipe [2]struct {
		valid bool
		addr  uint32
	}

	window    []int32
	sinceEmit int
	seq       int64
	accepted  int64

	out   Result
	errct int
}

// Run replays a retired-branch record through the cycle model.
func Run(events []cpu.BranchEvent, cfg Config) (*Result, error) {
	if cfg.Mapper == nil {
		return nil, fmt.Errorf("soc: nil mapper")
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.DrainThreshold <= 0 {
		cfg.DrainThreshold = 64
	}
	cs := &cyclesim{
		cfg:      cfg,
		clk:      sim.FabricClock,
		enc:      ptm.NewEncoder(ptm.Config{BranchBroadcast: true}),
		events:   events,
		deframer: tpiu.NewDeframer(),
		dec:      ptm.NewStreamDecoder(),
	}
	// Start at the first event's fabric edge.
	if len(events) > 0 {
		cs.now = cs.clk.NextEdge(sim.CPUClock.Duration(events[0].Cycle))
	}

	idle := 0
	for {
		cs.tick()
		cs.now += cs.clk.Period()
		cs.out.Cycles++
		if cs.busy() {
			idle = 0
		} else {
			idle++
			// A few flush cycles after everything drains.
			if idle == 2 && cs.nextEv >= len(cs.events) {
				cs.flush()
			}
			if idle > 64 {
				break
			}
		}
		if cs.out.Cycles > 1<<32 {
			return nil, fmt.Errorf("soc: runaway co-simulation")
		}
	}
	if cs.errct != 0 {
		return nil, fmt.Errorf("soc: %d decode errors in cycle model", cs.errct)
	}
	return &cs.out, nil
}

func (cs *cyclesim) busy() bool {
	return cs.nextEv < len(cs.events) ||
		len(cs.holdback) >= cs.cfg.DrainThreshold ||
		len(cs.portQ) > 0 ||
		len(cs.wordQ) > 0 || len(cs.taQ) > 0 || len(cs.addrQ) > 0 ||
		cs.ivgPipe[0].valid || cs.ivgPipe[1].valid
}

// flush pushes out the stragglers (encoder atoms, partial frames) the way
// the driver's stop sequence does at the end of a trace window.
func (cs *cyclesim) flush() {
	cs.holdback = append(cs.holdback, cs.enc.Flush()...)
	cs.portQ = append(cs.portQ, cs.holdback...)
	cs.holdback = cs.holdback[:0]
	if len(cs.frameBuf) > 0 {
		cs.emitFrame()
	}
}

// tick advances every stage by one fabric cycle, downstream-first so data
// takes at least a cycle per stage, like registered hardware.
func (cs *cyclesim) tick() {
	// IVG stage 2: vector encoder.
	if p := cs.ivgPipe[1]; p.valid {
		cs.ivgPipe[1].valid = false
		cs.acceptVE(p.addr)
	}
	// IVG stage 1: address mapper.
	if p := cs.ivgPipe[0]; p.valid {
		cs.ivgPipe[0].valid = false
		if _, ok := cs.cfg.Mapper.Lookup(p.addr); ok {
			cs.ivgPipe[1] = p
			cs.ivgPipe[1].valid = true
		}
	}
	// P2S: one address per cycle enters the IVG.
	if len(cs.addrQ) > 0 && !cs.ivgPipe[0].valid {
		cs.ivgPipe[0].valid = true
		cs.ivgPipe[0].addr = cs.addrQ[0]
		cs.addrQ = cs.addrQ[:copy(cs.addrQ, cs.addrQ[1:])]
	}
	// TA units: up to four payload bytes decoded per cycle.
	n := len(cs.taQ)
	if n > 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		if pkt, ok := cs.dec.FeedByte(cs.taQ[i]); ok && pkt.Type == ptm.PktBranch {
			cs.addrQ = append(cs.addrQ, pkt.Addr)
		}
	}
	cs.taQ = cs.taQ[:copy(cs.taQ, cs.taQ[n:])]
	cs.errct = cs.dec.Errors

	// TPIU port: one 32-bit word per cycle to the TA input.
	if len(cs.wordQ) > 0 {
		w := cs.wordQ[0]
		cs.wordQ = cs.wordQ[:copy(cs.wordQ, cs.wordQ[1:])]
		cs.taQ = append(cs.taQ, cs.deframer.Feed(w)...)
	}
	// TPIU formatter: pack port bytes into frames.
	take := len(cs.portQ)
	if take > 4 {
		take = 4
	}
	cs.frameBuf = append(cs.frameBuf, cs.portQ[:take]...)
	cs.portQ = cs.portQ[:copy(cs.portQ, cs.portQ[take:])]
	cs.out.Bytes += int64(take)
	if len(cs.frameBuf) >= tpiu.PayloadBytes {
		cs.emitFrame()
	}

	// PTM formatter: release the hold-back buffer past the threshold.
	if len(cs.holdback) >= cs.cfg.DrainThreshold {
		cs.portQ = append(cs.portQ, cs.holdback...)
		cs.holdback = cs.holdback[:0]
	}
	// Retired branches whose time has come enter the encoder.
	for cs.nextEv < len(cs.events) {
		ev := cs.events[cs.nextEv]
		if sim.CPUClock.Duration(ev.Cycle) > cs.now {
			break
		}
		cs.holdback = cs.enc.EncodeInto(cs.holdback, ev)
		cs.nextEv++
	}
}

// emitFrame packages the first PayloadBytes into a frame and queues its
// four port words.
func (cs *cyclesim) emitFrame() {
	n := len(cs.frameBuf)
	if n > tpiu.PayloadBytes {
		n = tpiu.PayloadBytes
	}
	var frame [tpiu.FrameBytes]byte
	frame[0] = tpiu.DefaultSourceID
	copy(frame[1:1+n], cs.frameBuf[:n])
	frame[tpiu.FrameBytes-1] = byte(n)
	cs.frameBuf = cs.frameBuf[:copy(cs.frameBuf, cs.frameBuf[n:])]
	for i := 0; i < tpiu.FrameBytes; i += 4 {
		w := uint32(frame[i]) | uint32(frame[i+1])<<8 |
			uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
		cs.wordQ = append(cs.wordQ, w)
	}
}

// acceptVE is the vector-encoder stage: windowing and stride pacing.
func (cs *cyclesim) acceptVE(addr uint32) {
	class, _ := cs.cfg.Mapper.Lookup(addr)
	cs.accepted++
	cs.window = append(cs.window, class)
	if len(cs.window) > cs.cfg.Window {
		cs.window = cs.window[len(cs.window)-cs.cfg.Window:]
	}
	if len(cs.window) < cs.cfg.Window {
		return
	}
	cs.sinceEmit++
	if cs.sinceEmit < cs.cfg.Stride && cs.seq > 0 {
		return
	}
	cs.sinceEmit = 0
	cs.out.Vectors = append(cs.out.Vectors, Vector{
		Seq:     cs.seq,
		At:      cs.now,
		Classes: append([]int32(nil), cs.window...),
	})
	cs.seq++
}

// Judgment extends the co-simulation across the MCM: vector FIFO admission,
// the TX/compute/RX service window, and the judgment-ready instant.
type Judgment struct {
	Vector Vector
	Start  sim.Time
	Done   sim.Time
}

// EngineConfig adds the back half of the SoC to a co-simulation run.
type EngineConfig struct {
	// Service returns the ML-MIAOW cycle count for one window (an
	// mcm.Engine's Infer result; state-bearing engines see windows in
	// admission order, exactly as in the analytic model).
	Service func(window []int32) (int64, error)
	// TXWrites is the number of single-beat writes per vector (window
	// words + control registers); RXReads the result reads.
	TXWrites, RXReads int
	// PerWriteCycles is the interconnect cost per single-beat access.
	PerWriteCycles int64
	FIFODepth      int
}

// RunWithEngine co-simulates the full path and returns both the vectors and
// their judgments, plus the number of FIFO drops.
func RunWithEngine(events []cpu.BranchEvent, cfg Config, ecfg EngineConfig) (*Result, []Judgment, int64, error) {
	if ecfg.Service == nil {
		return nil, nil, 0, fmt.Errorf("soc: nil engine service")
	}
	if ecfg.FIFODepth <= 0 {
		ecfg.FIFODepth = 8
	}
	if ecfg.PerWriteCycles <= 0 {
		ecfg.PerWriteCycles = 6
	}
	res, err := Run(events, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	// The MCM stage is fed by the cycle-model vector stream; its own
	// timing is stepped with the same admission rules as the hardware:
	// a vector arriving while the FIFO holds FIFODepth waiting entries
	// is lost.
	clk := sim.FabricClock
	var judged []Judgment
	var drops int64
	var freeAt sim.Time
	var starts []sim.Time
	for _, v := range res.Vectors {
		waiting := 0
		for _, s := range starts {
			if s > v.At {
				waiting++
			}
		}
		if waiting >= ecfg.FIFODepth {
			drops++
			continue
		}
		start := clk.NextEdge(v.At)
		if freeAt > start {
			start = freeAt
		}
		gpuCycles, err := ecfg.Service(v.Classes)
		if err != nil {
			return nil, nil, 0, err
		}
		done := start + clk.Duration(1) + // FIFO pop
			clk.Duration(int64(ecfg.TXWrites)*ecfg.PerWriteCycles) +
			sim.GPUClock.Duration(gpuCycles) +
			clk.Duration(int64(ecfg.RXReads)*ecfg.PerWriteCycles)
		judged = append(judged, Judgment{Vector: v, Start: start, Done: done})
		freeAt = done
		starts = append(starts, start)
		if len(starts) > 4*ecfg.FIFODepth {
			starts = append(starts[:0], starts[len(starts)-2*ecfg.FIFODepth:]...)
		}
	}
	return res, judged, drops, nil
}
