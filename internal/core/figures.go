package core

import (
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/mcm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
	"rtad/internal/workload"
)

// OverheadResult is one Fig 6 bar: the relative execution-time increase of
// a collection mode over the uninstrumented baseline.
type OverheadResult struct {
	Benchmark string
	Mode      cpu.Mode
	Baseline  int64 // cycles
	Cycles    int64
	Overhead  float64 // (Cycles-Baseline)/Baseline
}

// MeasureOverhead runs one benchmark under one collection mode and the
// baseline, both for instr instructions, and reports the slowdown.
func MeasureOverhead(p workload.Profile, mode cpu.Mode, instr int64) (OverheadResult, error) {
	prog, err := p.Generate()
	if err != nil {
		return OverheadResult{}, err
	}
	base := cpu.New(prog, cpu.Config{Mode: cpu.ModeBaseline})
	if _, err := base.Run(instr); err != nil {
		return OverheadResult{}, err
	}

	var sink cpu.Sink
	if mode == cpu.ModeRTAD {
		// The RTAD path's only host cost is the CoreSight port.
		sink = ptm.NewOverheadSink()
	}
	run := cpu.New(prog, cpu.Config{Mode: mode, Sink: sink})
	if _, err := run.Run(instr); err != nil {
		return OverheadResult{}, err
	}
	res := OverheadResult{
		Benchmark: p.Name,
		Mode:      mode,
		Baseline:  base.Cycles(),
		Cycles:    run.Cycles(),
	}
	res.Overhead = float64(res.Cycles-res.Baseline) / float64(res.Baseline)
	return res, nil
}

// TransferBreakdown is one Fig 7 bar: the three stages between a branch
// retiring and its input vector being ready inside ML-MIAOW's memory.
type TransferBreakdown struct {
	// Read: branch data visible to the vectorising logic (for RTAD, PTM
	// buffering + TPIU framing + TA decode; for SW, the instrumented
	// read of the trace buffer).
	Read sim.Time
	// Vectorize: input-vector construction (IGM's two cycles vs the
	// software loop's table lookups).
	Vectorize sim.Time
	// Write: delivery into ML-MIAOW memory (MCM TX engine vs a CPU-driven
	// uncached copy).
	Write sim.Time
}

// Total sums the stages.
func (t TransferBreakdown) Total() sim.Time { return t.Read + t.Vectorize + t.Write }

// Software-baseline cost model (Fig 7's "SW" bars), constants expressed in
// the units the work actually happens in. The host reads each trace word
// from the instrumentation buffer and unpacks it; vectorisation hashes each
// element against the relevant-branch table; the copy is a CPU-driven
// uncached write sequence into peripheral memory, paced by the 125 MHz
// fabric.
const (
	swReadCyclesPerElem = 16  // CPU cycles: load + unpack per element
	swReadFixedCycles   = 100 // syscall into the collector, buffer check
	swVecCyclesPerElem  = 110 // CPU cycles: hash, table probe, encode
	swVecFixedCycles    = 80
	swCopyFabricPerWord = 85 // uncached single-beat write, incl. software overhead
	swCopyFabricFixed   = 80 // mapping + completion check
)

// SWTransfer models the pure-software delivery path for a vector of n
// elements.
func SWTransfer(n int) TransferBreakdown {
	return TransferBreakdown{
		Read:      sim.CPUClock.Duration(int64(n)*swReadCyclesPerElem + swReadFixedCycles),
		Vectorize: sim.CPUClock.Duration(int64(n)*swVecCyclesPerElem + swVecFixedCycles),
		Write:     sim.FabricClock.Duration(int64(n)*swCopyFabricPerWord + swCopyFabricFixed),
	}
}

// MeasureRTADTransfer runs the deployment's pipeline on a normal window of
// instr instructions and reports the three stages for the judged vectors.
// The Vectorize and Write stages are the IGM's and the MCM's own fixed
// costs (igm.VectorizeCycles, mcm.TXTime); the Read stage, averaged over
// the vectors, is whatever remains between retirement and vector emission,
// dominated by PTM hold-back buffering (Fig 7's discussion).
func MeasureRTADTransfer(dep *Deployment, pcfg PipelineConfig, instr int64) (TransferBreakdown, int, error) {
	// A session with no attack armed is exactly the clean-window pipeline
	// run the figure needs.
	s, err := Open(Deployments{dep}, WithConfig(pcfg))
	if err != nil {
		return TransferBreakdown{}, 0, err
	}
	if _, err := s.Step(instr); err != nil {
		return TransferBreakdown{}, 0, err
	}
	if err := s.Drain(); err != nil {
		return TransferBreakdown{}, 0, err
	}
	judged := s.Results()
	if len(judged) == 0 {
		return TransferBreakdown{}, 0, fmt.Errorf("core: no vectors produced in %d instructions", instr)
	}
	var read sim.Time
	ivg := sim.FabricClock.Duration(igm.VectorizeCycles)
	for _, j := range judged {
		// Vector.At marks the vector leaving the IVG; subtract the IVG
		// stage to place the decode point.
		decode := j.Vector.At - ivg
		if decode < j.FinalRetire {
			decode = j.FinalRetire
		}
		read += decode - j.FinalRetire
	}
	return TransferBreakdown{
		Read:      read / sim.Time(len(judged)),
		Vectorize: ivg,
		Write:     mcm.TXTime(dep.Window()),
	}, len(judged), nil
}
