// Package synth estimates the hardware footprint of every RTAD module,
// reproducing Table I: per-submodule LUT/FF/BRAM counts for the FPGA
// prototype and gate-equivalent counts for a 45 nm-style ASIC flow. Each
// module is described as a netlist of technology-independent primitives
// (registers, adders, muxes, comparators, raw logic terms, memories) sized
// from the actual architecture parameters used elsewhere in this
// repository; two cost models translate primitives into FPGA resources and
// gate equivalents (1 GE = one 2-input NAND).
//
// Fidelity note: the FPGA numbers are the calibrated layer (they are what
// the paper's prototype argument rests on); the ASIC gate counts are a
// coarser translation, as they are in any pre-synthesis estimate.
package synth

import "fmt"

// Kind classifies a primitive.
type Kind uint8

// Primitive kinds.
const (
	Reg    Kind = iota // Bits flip-flop bits
	Adder              // Bits adder bit-slices
	Mux                // Bits 2:1 mux bit-slices
	Cmp                // Bits comparator bit-slices
	Logic              // Bits raw LUT-sized logic terms (decode tables, FSMs)
	RAM                // Bits memory bits; large arrays map to BRAM
	LUTRAM             // Bits small distributed-RAM bits
)

var kindNames = []string{"reg", "adder", "mux", "cmp", "logic", "ram", "lutram"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Primitive is one netlist element: Count instances of Bits bits each.
type Primitive struct {
	Kind  Kind
	Bits  int
	Count int
}

// Netlist is a module's structural description.
type Netlist struct {
	Name  string
	Prims []Primitive
}

// Add appends count instances of a primitive with the given bit width.
func (n *Netlist) Add(k Kind, bits, count int) {
	n.Prims = append(n.Prims, Primitive{Kind: k, Bits: bits, Count: count})
}

// Area is an estimated footprint.
type Area struct {
	LUTs  int
	FFs   int
	BRAMs int
	Gates int // gate equivalents (2-input NAND)
}

// Add accumulates b into a.
func (a *Area) Add(b Area) {
	a.LUTs += b.LUTs
	a.FFs += b.FFs
	a.BRAMs += b.BRAMs
	a.Gates += b.Gates
}

// BRAMBits is the capacity of one block RAM (RAMB18-style).
const BRAMBits = 18 * 1024

// FPGA cost model: LUTs/FFs/BRAMs per primitive bit.
var fpgaLUTPerBit = map[Kind]float64{
	Adder: 1.0, Mux: 0.5, Cmp: 0.4, Logic: 1.0, LUTRAM: 1.0 / 40,
}

// ASIC cost model: gate equivalents per primitive bit. RAM bits are
// excluded — an ASIC flow places them as SRAM macros whose area the gate
// count does not include (this is why Table I's "Internal FIFO" row shows
// 10 BRAMs but only 262 gates).
var gatePerBit = map[Kind]float64{
	Reg: 7.0, Adder: 5.5, Mux: 2.3, Cmp: 3.0, Logic: 0.85, LUTRAM: 0.9,
}

// Estimate translates the netlist through both cost models.
func (n *Netlist) Estimate() Area {
	var a Area
	var lutF, gateF float64
	for _, p := range n.Prims {
		bits := p.Bits * p.Count
		switch p.Kind {
		case Reg:
			a.FFs += bits
		case RAM:
			a.BRAMs += (bits + BRAMBits - 1) / BRAMBits
		}
		lutF += fpgaLUTPerBit[p.Kind] * float64(bits)
		gateF += gatePerBit[p.Kind] * float64(bits)
	}
	a.LUTs = int(lutF)
	a.Gates = int(gateF)
	return a
}

// GPU FPGA→gate translation weights, the estimation path for ML-MIAOW
// (whose footprint comes from the calibrated block table in internal/gpu
// rather than a primitive netlist). Calibrated against Table I's
// 1,865,989 GE for five trimmed CUs.
const (
	gpuGatePerLUT     = 6.5
	gpuGatePerFF      = 5.0
	gpuGatePerBRAMBit = 0.12
)

// GPUGates translates an FPGA footprint of the compute engine into gate
// equivalents.
func GPUGates(luts, ffs, brams int) int {
	return int(float64(luts)*gpuGatePerLUT +
		float64(ffs)*gpuGatePerFF +
		float64(brams*BRAMBits)*gpuGatePerBRAMBit)
}
