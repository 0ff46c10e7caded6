package gpu

import (
	"fmt"

	"rtad/internal/obs"
)

// Q is the fixed-point scale: values are Q16.16 (1.0 == 1<<16).
const Q = 16

// QOne is 1.0 in Q16.16.
const QOne int32 = 1 << Q

// MulQ multiplies two Q16.16 values with a 64-bit intermediate, the
// reference semantics of v_mul_q16.
func MulQ(a, b int32) int32 { return int32(int64(a) * int64(b) >> Q) }

// Device is a MIAOW-style compute device: shared global memory plus a
// number of identical compute units. MIAOW proper fits a single CU on the
// ZC706; the trimmed ML-MIAOW fits five (§IV-A). One Device instance
// represents either, depending on NumCU and the trim set.
type Device struct {
	Mem   []uint32
	NumCU int

	coverage *CoverageSet
	keep     *CoverageSet // non-nil: trimmed device, only these blocks exist

	obsDispatches *obs.Counter
	obsWavefronts *obs.Counter
	obsInstrs     *obs.Counter
	obsCycles     *obs.Counter
}

// Observe attaches telemetry counters for dispatches, wavefronts, dynamic
// instructions and makespan cycles. A nil bundle detaches. The device has
// no sim-time notion of its own (the MCM anchors kernel makespans on the
// timeline), so it contributes counters, not trace spans.
func (d *Device) Observe(tel *obs.Telemetry) {
	d.obsDispatches = tel.Counter("rtad_gpu_dispatches_total")
	d.obsWavefronts = tel.Counter("rtad_gpu_wavefronts_total")
	d.obsInstrs = tel.Counter("rtad_gpu_instructions_total")
	d.obsCycles = tel.Counter("rtad_gpu_cycles_total")
}

// DispatchOverheadCycles is the fixed cost of launching one wavefront on a
// CU (control-register writes and fetch warm-up).
const DispatchOverheadCycles int64 = 12

// DefaultMaxInstrs bounds runaway kernels.
const DefaultMaxInstrs int64 = 4 << 20

// NewDevice returns a device with memWords of global memory and numCU
// compute units.
func NewDevice(memWords, numCU int) *Device {
	if numCU <= 0 {
		numCU = 1
	}
	return &Device{
		Mem:   make([]uint32, memWords),
		NumCU: numCU,
	}
}

// EnableCoverage starts block-coverage collection (the "coverage on" switch
// of the trimming flow's dynamic simulation step).
func (d *Device) EnableCoverage() {
	d.coverage = &CoverageSet{}
}

// Coverage returns the collected coverage set.
func (d *Device) Coverage() CoverageSet {
	if d.coverage == nil {
		return CoverageSet{}
	}
	return *d.coverage
}

// SetTrim restricts the device to the given block set: the trimmed
// ML-MIAOW. Executing an instruction that needs a missing block returns a
// trap error from Run.
func (d *Device) SetTrim(keep CoverageSet) {
	k := keep
	d.keep = &k
}

// WriteWords copies words into global memory at word address addr.
func (d *Device) WriteWords(addr uint32, words []uint32) error {
	if int(addr)+len(words) > len(d.Mem) {
		return fmt.Errorf("gpu: write beyond memory at %#x+%d", addr, len(words))
	}
	copy(d.Mem[addr:], words)
	return nil
}

// Dispatch describes one kernel launch.
type Dispatch struct {
	Kernel *Kernel
	// Wavefronts is the grid size; wavefront w sees its index in s15.
	Wavefronts int
	// LanesPerWave sets the initial EXEC mask width (1–64; 0 means 64).
	LanesPerWave int
	// SArgs preloads s0.. with kernel arguments (pointers, sizes).
	SArgs []uint32
	// MaxInstrs bounds per-wavefront execution (0 = DefaultMaxInstrs).
	MaxInstrs int64
}

// Result reports a completed dispatch.
type Result struct {
	// Cycles is the makespan: dispatch start to last wavefront retired,
	// with wavefronts scheduled greedily across the CUs.
	Cycles int64
	// Instructions is the total dynamic instruction count.
	Instructions int64
	// WaveCycles is each wavefront's own execution time.
	WaveCycles []int64
}

// WaveIDSGPR is the SGPR carrying the wavefront index at launch.
const WaveIDSGPR = 15

// Run executes a dispatch to completion and returns its timing. The device
// memory reflects all stores afterwards. Wavefronts run sequentially in
// wave order (the model is single-issue per CU with no preemption), so
// results are deterministic regardless of CU count.
func (d *Device) Run(disp Dispatch) (*Result, error) {
	if disp.Kernel == nil || len(disp.Kernel.Code) == 0 {
		return nil, fmt.Errorf("gpu: empty kernel")
	}
	waves := disp.Wavefronts
	if waves <= 0 {
		waves = 1
	}
	lanes := disp.LanesPerWave
	if lanes <= 0 || lanes > WaveLanes {
		lanes = WaveLanes
	}
	maxInstrs := disp.MaxInstrs
	if maxInstrs <= 0 {
		maxInstrs = DefaultMaxInstrs
	}

	res := &Result{WaveCycles: make([]int64, 0, waves)}
	for w := 0; w < waves; w++ {
		cycles, instrs, err := d.runWave(disp.Kernel, uint32(w), lanes, disp.SArgs, maxInstrs)
		if err != nil {
			return nil, fmt.Errorf("gpu: kernel %s wave %d: %w", disp.Kernel.Name, w, err)
		}
		res.WaveCycles = append(res.WaveCycles, cycles+DispatchOverheadCycles)
		res.Instructions += instrs
	}
	// Greedy earliest-free scheduling of the wavefronts onto the CUs.
	free := make([]int64, d.NumCU)
	var makespan int64
	for _, wc := range res.WaveCycles {
		best := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[best] {
				best = i
			}
		}
		free[best] += wc
		if free[best] > makespan {
			makespan = free[best]
		}
	}
	res.Cycles = makespan
	d.obsDispatches.Inc()
	d.obsWavefronts.Add(int64(waves))
	d.obsInstrs.Add(res.Instructions)
	d.obsCycles.Add(res.Cycles)
	return res, nil
}

// wavefront execution state.
type waveState struct {
	sgpr [NumSGPR]uint32
	vgpr [NumVGPR][WaveLanes]int32
	exec [WaveLanes]bool
	vcc  [WaveLanes]bool
	scc  bool
	lds  []uint32
}

// touch records coverage and enforces trims for one op.
func (d *Device) touch(op Op) error {
	if d.coverage != nil {
		for _, b := range infraBlocks {
			d.coverage[b] = true
		}
		for _, b := range OpBlocks(op) {
			d.coverage[b] = true
		}
	}
	if d.keep != nil {
		for _, b := range OpBlocks(op) {
			if !d.keep[b] {
				return fmt.Errorf("trap: %v requires trimmed block %v", op, b)
			}
		}
	}
	return nil
}

func (d *Device) runWave(k *Kernel, waveID uint32, lanes int, sargs []uint32, maxInstrs int64) (cycles, instrs int64, err error) {
	st := &waveState{lds: make([]uint32, LDSWords)}
	for i, v := range sargs {
		if i >= NumSGPR {
			break
		}
		st.sgpr[i] = v
	}
	st.sgpr[WaveIDSGPR] = waveID
	for l := 0; l < lanes; l++ {
		st.exec[l] = true
		st.vgpr[0][l] = int32(l) // v0 = lane id, as at SI dispatch
	}

	sval := func(o Operand) int32 {
		switch o.Kind {
		case OpSReg:
			return int32(st.sgpr[o.Reg])
		case OpImm:
			return o.Imm
		}
		return 0
	}
	vval := func(o Operand, lane int) int32 {
		switch o.Kind {
		case OpVReg:
			return st.vgpr[o.Reg][lane]
		case OpSReg:
			return int32(st.sgpr[o.Reg])
		case OpImm:
			return o.Imm
		}
		return 0
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(k.Code) {
			return cycles, instrs, fmt.Errorf("pc %d out of kernel", pc)
		}
		ins := k.Code[pc]
		if err := d.touch(ins.Op); err != nil {
			return cycles, instrs, err
		}
		instrs++
		cycles += ins.Op.Cycles()
		if instrs > maxInstrs {
			return cycles, instrs, fmt.Errorf("instruction budget exceeded (%d)", maxInstrs)
		}
		next := pc + 1

		switch ins.Op {
		case SNOP, SBARRIER:
		case SENDPGM:
			return cycles, instrs, nil
		case SMOV:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A))
		case SADD:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) + sval(ins.B))
		case SSUB:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) - sval(ins.B))
		case SMUL:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) * sval(ins.B))
		case SAND:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) & sval(ins.B))
		case SOR:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) | sval(ins.B))
		case SXOR:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A) ^ sval(ins.B))
		case SLSL:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A)) << (uint32(sval(ins.B)) & 31)
		case SLSR:
			st.sgpr[ins.Dst.Reg] = uint32(sval(ins.A)) >> (uint32(sval(ins.B)) & 31)
		case SCMPLT:
			st.scc = sval(ins.A) < sval(ins.B)
		case SCMPLE:
			st.scc = sval(ins.A) <= sval(ins.B)
		case SCMPEQ:
			st.scc = sval(ins.A) == sval(ins.B)
		case SCMPNE:
			st.scc = sval(ins.A) != sval(ins.B)
		case SCMPGT:
			st.scc = sval(ins.A) > sval(ins.B)
		case SCMPGE:
			st.scc = sval(ins.A) >= sval(ins.B)
		case SBRANCH:
			next = int(ins.Imm)
			cycles += BranchTakenPenalty
		case SCBRANCH1:
			if st.scc {
				next = int(ins.Imm)
				cycles += BranchTakenPenalty
			}
		case SCBRANCH0:
			if !st.scc {
				next = int(ins.Imm)
				cycles += BranchTakenPenalty
			}
		case SSETEXECALL:
			for l := range st.exec {
				st.exec[l] = true
			}
		case SSETEXECVCC:
			st.exec = st.vcc
		case SSETEXECCNT:
			for l := range st.exec {
				st.exec[l] = l < int(ins.Imm)
			}
		case SLOADW:
			addr := uint32(sval(ins.A)) + uint32(ins.Imm)
			if int(addr) >= len(d.Mem) {
				return cycles, instrs, fmt.Errorf("s_load out of memory at %#x", addr)
			}
			st.sgpr[ins.Dst.Reg] = d.Mem[addr]
		case SSTOREW:
			addr := uint32(sval(ins.B)) + uint32(ins.Imm)
			if int(addr) >= len(d.Mem) {
				return cycles, instrs, fmt.Errorf("s_store out of memory at %#x", addr)
			}
			d.Mem[addr] = uint32(sval(ins.A))

		case VMOV, VADD, VSUB, VMUL, VMULQ, VMACQ, VAND, VOR, VXOR,
			VLSL, VLSR, VASR, VMIN, VMAX, VCNDMASK:
			for l := 0; l < WaveLanes; l++ {
				if !st.exec[l] {
					continue
				}
				a := vval(ins.A, l)
				b := vval(ins.B, l)
				var r int32
				switch ins.Op {
				case VMOV:
					r = a
				case VADD:
					r = a + b
				case VSUB:
					r = a - b
				case VMUL:
					r = a * b
				case VMULQ:
					r = MulQ(a, b)
				case VMACQ:
					r = st.vgpr[ins.Dst.Reg][l] + MulQ(a, b)
				case VAND:
					r = a & b
				case VOR:
					r = a | b
				case VXOR:
					r = a ^ b
				case VLSL:
					r = int32(uint32(a) << (uint32(b) & 31))
				case VLSR:
					r = int32(uint32(a) >> (uint32(b) & 31))
				case VASR:
					r = a >> (uint32(b) & 31)
				case VMIN:
					if r = a; b < a {
						r = b
					}
				case VMAX:
					if r = a; b > a {
						r = b
					}
				case VCNDMASK:
					if r = b; st.vcc[l] {
						r = a
					}
				}
				st.vgpr[ins.Dst.Reg][l] = r
			}
		case VCMPLT, VCMPEQ, VCMPGT:
			for l := 0; l < WaveLanes; l++ {
				if !st.exec[l] {
					st.vcc[l] = false
					continue
				}
				a := vval(ins.A, l)
				b := vval(ins.B, l)
				switch ins.Op {
				case VCMPLT:
					st.vcc[l] = a < b
				case VCMPEQ:
					st.vcc[l] = a == b
				case VCMPGT:
					st.vcc[l] = a > b
				}
			}
		case VREADLANE:
			st.sgpr[ins.Dst.Reg] = uint32(st.vgpr[ins.A.Reg][ins.Imm])

		case DSREAD, DSWRITE:
			for l := 0; l < WaveLanes; l++ {
				if !st.exec[l] {
					continue
				}
				var addr uint32
				if ins.Op == DSREAD {
					addr = uint32(vval(ins.A, l)) + uint32(ins.Imm)
				} else {
					addr = uint32(vval(ins.B, l)) + uint32(ins.Imm)
				}
				if int(addr) >= LDSWords {
					return cycles, instrs, fmt.Errorf("LDS access out of range at %#x", addr)
				}
				if ins.Op == DSREAD {
					st.vgpr[ins.Dst.Reg][l] = int32(st.lds[addr])
				} else {
					st.lds[addr] = uint32(vval(ins.A, l))
				}
			}
		case FLATLOAD, FLATSTORE:
			for l := 0; l < WaveLanes; l++ {
				if !st.exec[l] {
					continue
				}
				var addr uint32
				if ins.Op == FLATLOAD {
					addr = uint32(vval(ins.A, l)) + uint32(ins.Imm)
				} else {
					addr = uint32(vval(ins.B, l)) + uint32(ins.Imm)
				}
				if int(addr) >= len(d.Mem) {
					return cycles, instrs, fmt.Errorf("flat access out of memory at %#x", addr)
				}
				if ins.Op == FLATLOAD {
					st.vgpr[ins.Dst.Reg][l] = int32(d.Mem[addr])
				} else {
					d.Mem[addr] = uint32(vval(ins.A, l))
				}
			}
		default:
			return cycles, instrs, fmt.Errorf("unimplemented op %v", ins.Op)
		}
		pc = next
	}
}
