// Package gpu implements the MIAOW-derived compute engine at the heart of
// RTAD's ML computing module. It is a programmable SIMT core executing a
// Southern-Islands-flavoured instruction subset: scalar ALU + control flow,
// a 64-lane vector datapath (issued over four beats of a 16-lane ALU, as in
// SI hardware), scalar and vector memory, and an LDS scratchpad. Integer
// and Q16.16 fixed-point arithmetic cover the inference kernels' needs.
//
// Two properties make this a faithful stand-in for the paper's RTL:
//
//  1. Cycle accounting. Every instruction charges a documented cost, so a
//     kernel's cycle count at the 50 MHz prototype clock gives the same
//     latency quantity the paper measures in Figs 7–8.
//  2. HDL-block coverage. Every instruction maps to named hardware blocks
//     (decode sub-blocks, execution units, datapath infrastructure). Running
//     kernels with coverage enabled marks blocks, exactly like HDL line
//     coverage in the paper's Incisive flow, and the trimming pass
//     (internal/trim) removes unmarked blocks. Executing an instruction
//     whose block was trimmed is a hardware trap.
package gpu

import "fmt"

// WaveLanes is the wavefront width; VALULanes the physical vector ALU width
// (a wavefront issues over WaveLanes/VALULanes beats).
const (
	WaveLanes = 64
	VALULanes = 16
	ValuBeats = WaveLanes / VALULanes
)

// Register-file and LDS sizing per compute unit.
const (
	NumSGPR  = 32
	NumVGPR  = 32
	LDSWords = 16 * 1024
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. Grouped by datapath; the groups matter for block mapping.
const (
	// Scalar ALU.
	SMOV Op = iota
	SADD
	SSUB
	SMUL
	SAND
	SOR
	SXOR
	SLSL
	SLSR
	// Scalar compare -> SCC.
	SCMPLT
	SCMPLE
	SCMPEQ
	SCMPNE
	SCMPGT
	SCMPGE
	// Scalar control flow.
	SBRANCH
	SCBRANCH1 // branch if SCC
	SCBRANCH0 // branch if !SCC
	SSETEXECALL
	SSETEXECVCC
	SSETEXECCNT // enable first imm lanes
	SBARRIER
	SNOP
	SENDPGM
	// Scalar memory.
	SLOADW  // s_d = mem[s_base + imm]
	SSTOREW // mem[s_base + imm] = s_s
	// Vector ALU (integer / fixed point).
	VMOV
	VADD
	VSUB
	VMUL  // low 32-bit integer multiply
	VMULQ // Q16.16 multiply
	VMACQ // Q16.16 multiply-accumulate into dst
	VAND
	VOR
	VXOR
	VLSL
	VLSR
	VASR
	VMIN
	VMAX
	// Vector compare -> VCC (per lane).
	VCMPLT
	VCMPEQ
	VCMPGT
	VCNDMASK  // dst = VCC ? srcA : srcB
	VREADLANE // s_d = v_a[imm lane]
	// Vector memory.
	DSREAD    // v_d = LDS[v_addr + imm]
	DSWRITE   // LDS[v_addr + imm] = v_s
	FLATLOAD  // v_d = mem[v_addr + imm]
	FLATSTORE // mem[v_addr + imm] = v_s

	numOps
)

var opNames = [numOps]string{
	SMOV: "s_mov", SADD: "s_add", SSUB: "s_sub", SMUL: "s_mul",
	SAND: "s_and", SOR: "s_or", SXOR: "s_xor", SLSL: "s_lsl", SLSR: "s_lsr",
	SCMPLT: "s_cmp_lt", SCMPLE: "s_cmp_le", SCMPEQ: "s_cmp_eq",
	SCMPNE: "s_cmp_ne", SCMPGT: "s_cmp_gt", SCMPGE: "s_cmp_ge",
	SBRANCH: "s_branch", SCBRANCH1: "s_cbranch_scc1", SCBRANCH0: "s_cbranch_scc0",
	SSETEXECALL: "s_setexec_all", SSETEXECVCC: "s_setexec_vcc", SSETEXECCNT: "s_setexec_cnt",
	SBARRIER: "s_barrier", SNOP: "s_nop", SENDPGM: "s_endpgm",
	SLOADW: "s_load", SSTOREW: "s_store",
	VMOV: "v_mov", VADD: "v_add", VSUB: "v_sub", VMUL: "v_mul",
	VMULQ: "v_mul_q16", VMACQ: "v_mac_q16",
	VAND: "v_and", VOR: "v_or", VXOR: "v_xor",
	VLSL: "v_lsl", VLSR: "v_lsr", VASR: "v_asr",
	VMIN: "v_min", VMAX: "v_max",
	VCMPLT: "v_cmp_lt", VCMPEQ: "v_cmp_eq", VCMPGT: "v_cmp_gt",
	VCNDMASK: "v_cndmask", VREADLANE: "v_readlane",
	DSREAD: "ds_read", DSWRITE: "ds_write",
	FLATLOAD: "flat_load", FLATSTORE: "flat_store",
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("gop(%d)", uint8(op))
}

// Cycles returns the issue-to-complete cost of op in GPU cycles on the
// in-order MIAOW-style pipeline: scalar single-cycle, vector ops occupy the
// 16-lane ALU for four beats, LDS adds bank access, flat memory goes to the
// shared SoC SRAM.
func (op Op) Cycles() int64 {
	switch {
	case op >= VMOV && op <= VREADLANE:
		return int64(ValuBeats)
	case op == DSREAD || op == DSWRITE:
		return int64(ValuBeats) + 2
	case op == FLATLOAD:
		// Global accesses hit ML-MIAOW's internal SRAM (the paper's
		// "internal memory" the MCM TX engine fills), not off-chip DRAM.
		return int64(ValuBeats) + 4
	case op == FLATSTORE:
		return int64(ValuBeats) + 2
	case op == SLOADW:
		return 4
	case op == SSTOREW:
		return 3
	default:
		return 1
	}
}

// BranchTakenPenalty is the pipeline refill cost of a taken scalar branch.
const BranchTakenPenalty int64 = 2

// OperandKind distinguishes instruction operand classes.
type OperandKind uint8

// Operand kinds.
const (
	OpNone OperandKind = iota
	OpSReg
	OpVReg
	OpImm
	OpLabel
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  uint8 // SGPR/VGPR index
	Imm  int32 // immediate, label target (resolved to PC), or lane index
}

func sreg(n uint8) Operand  { return Operand{Kind: OpSReg, Reg: n} }
func vreg(n uint8) Operand  { return Operand{Kind: OpVReg, Reg: n} }
func immOp(v int32) Operand { return Operand{Kind: OpImm, Imm: v} }

// Instr is one decoded instruction. Memory forms use A as the address base
// operand and Imm as the word offset.
type Instr struct {
	Op   Op
	Dst  Operand
	A, B Operand
	Imm  int32 // memory offset, branch target PC, or lane index
}
