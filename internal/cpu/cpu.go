package cpu

import (
	"fmt"

	"rtad/internal/isa"
)

// Config sets up a core. Its data RAM is always memBytes.
type Config struct {
	Mode Mode // collection mode (Fig 6)
	Sink Sink // branch-event consumer; may be nil
	// WXProtect enforces the threat model's W^X rule (§III-C): stores to
	// addresses inside the program image fault, so adversaries cannot
	// rewrite code and must divert control flow through legitimate
	// instructions — the attack class RTAD is built to catch.
	WXProtect bool
	// Cache optionally shares a basic-block translation cache with other
	// cores executing the same program (it must have been built by NewCache
	// over the identical *isa.Program; a mismatched cache is ignored and a
	// private one is built instead). Sessions of one deployment share a
	// cache so each block is translated once per deployment, not once per
	// session; sharing is lock-free and race-free — see Cache.
	Cache *Cache
}

// memBytes is the data RAM size (byte-addressable, word-aligned accesses),
// comfortable for the generated workloads.
const memBytes = 1 << 20

// CPU is one simulated host core. It is not safe for concurrent use; the
// whole SoC simulation is single-threaded by design (see internal/sim).
type CPU struct {
	prog *isa.Program
	mem  []byte
	// Predecoded program image, indexed by (pc-base)/WordBytes: the image
	// is immutable (W^X is the threat model), so each word is decoded once
	// at construction and the fetch/execute loop between branch events runs
	// on table lookups with no per-instruction decode. Words that fail to
	// decode stay marked invalid and fall back to isa.Decode for the
	// canonical error.
	dec   []isa.Instruction
	decOK []bool
	base  uint32
	// cache is the tiered engine's basic-block translation cache (possibly
	// shared with other cores running the same program). Run dispatches
	// whole blocks from it and falls back to Step between them.
	cache *Cache

	regs [isa.NumRegs]uint32
	pc   uint32
	// Comparison flags, set by CMP: the signed relation of rn to the
	// operand. Enough to implement BEQ/BNE/BLT/BGE.
	flagEQ bool
	flagLT bool

	mode Mode
	sink Sink
	wx   bool

	cycles      int64
	instret     int64
	branchSeq   int64
	stallCycles int64 // cycles lost to sink backpressure (RTAD overhead)
	instrCycles int64 // cycles spent in instrumentation stubs (SW_* overhead)
	kindCounts  [numKinds]int64
	// instrCost memoizes InstrumentationCost(mode, kind) — a pure function
	// of construction-time state — off the branch retirement path.
	instrCost [numKinds]int64
	halted    bool
}

// New builds a core around an assembled program. The stack pointer starts at
// the top of RAM; R10 points at the middle of RAM as the workload data base
// (the workload generator's convention).
func New(prog *isa.Program, cfg Config) *CPU {
	c := &CPU{
		prog:  prog,
		mem:   make([]byte, memBytes),
		dec:   make([]isa.Instruction, len(prog.Words)),
		decOK: make([]bool, len(prog.Words)),
		base:  prog.Base,
		mode:  cfg.Mode,
		sink:  cfg.Sink,
		wx:    cfg.WXProtect,
		pc:    prog.Base,
	}
	for i, w := range prog.Words {
		if ins, err := isa.Decode(w); err == nil {
			c.dec[i], c.decOK[i] = ins, true
		}
	}
	if cfg.Cache != nil && cfg.Cache.prog == prog {
		c.cache = cfg.Cache
	} else {
		c.cache = NewCache(prog)
	}
	for k := Kind(0); k < numKinds; k++ {
		c.instrCost[k] = InstrumentationCost(cfg.Mode, k)
	}
	c.regs[isa.SP] = memBytes - 16
	c.regs[isa.R10] = memBytes / 2
	return c
}

// SetSink re-points the core's branch-event consumer: every branch retired
// after the call goes to sink (nil drops them). A caller that wraps the
// current sink mid-run, as an attack injector does, installs the wrapper
// here.
func (c *CPU) SetSink(sink Sink) { c.sink = sink }

// Cycles returns the total elapsed CPU cycles, including stall and
// instrumentation time.
func (c *CPU) Cycles() int64 { return c.cycles }

// Instret returns the number of retired instructions (stub instructions are
// accounted as cycles, not retirements, so instruction counts stay
// comparable across modes).
func (c *CPU) Instret() int64 { return c.instret }

// StallCycles returns cycles lost to trace-sink backpressure.
func (c *CPU) StallCycles() int64 { return c.stallCycles }

// InstrumentationCycles returns cycles spent executing SW_* dump stubs.
func (c *CPU) InstrumentationCycles() int64 { return c.instrCycles }

func (c *CPU) loadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(c.mem) {
		return 0, fmt.Errorf("cpu: bad load address %#x at pc %#x", addr, c.pc)
	}
	return uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8 |
		uint32(c.mem[addr+2])<<16 | uint32(c.mem[addr+3])<<24, nil
}

func (c *CPU) storeWord(addr, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(c.mem) {
		return fmt.Errorf("cpu: bad store address %#x at pc %#x", addr, c.pc)
	}
	if c.wx && c.prog.Contains(addr) {
		return fmt.Errorf("cpu: W^X violation: store to code address %#x at pc %#x", addr, c.pc)
	}
	c.mem[addr] = byte(v)
	c.mem[addr+1] = byte(v >> 8)
	c.mem[addr+2] = byte(v >> 16)
	c.mem[addr+3] = byte(v >> 24)
	return nil
}

// retireBranch reports a branch event to the sink and charges any
// mode-specific instrumentation cost.
func (c *CPU) retireBranch(pc, target uint32, kind Kind, taken bool) {
	c.kindCounts[kind]++
	if cost := c.instrCost[kind]; cost > 0 {
		c.cycles += cost
		c.instrCycles += cost
	}
	if c.sink != nil && c.mode != ModeBaseline {
		ev := BranchEvent{
			Seq: c.branchSeq, Cycle: c.cycles,
			PC: pc, Target: target, Kind: kind, Taken: taken,
		}
		c.branchSeq++
		if stall := c.sink.BranchRetired(ev); stall > 0 {
			c.cycles += stall
			c.stallCycles += stall
		}
	}
}

// takeTo retires a taken transfer to target and returns the new PC.
func (c *CPU) takeTo(pc, target uint32, kind Kind) uint32 {
	c.cycles += isa.BranchTakenPenalty
	c.retireBranch(pc, target, kind, true)
	return target
}

// fetchSlow classifies a fetch that missed the predecode cache and returns
// its canonical error: a misaligned PC (an indirect transfer landed off a
// word boundary — reported explicitly, not as an out-of-image fetch), a PC
// outside the program image, or a word that never decoded.
func (c *CPU) fetchSlow() error {
	if c.pc%isa.WordBytes != 0 {
		return fmt.Errorf("cpu: misaligned pc %#x", c.pc)
	}
	w, err := c.prog.WordAt(c.pc)
	if err != nil {
		return err
	}
	if _, err := isa.Decode(w); err != nil {
		return fmt.Errorf("cpu: at pc %#x: %v", c.pc, err)
	}
	// Unreachable: an aligned, in-bounds, decodable word is always cached.
	return fmt.Errorf("cpu: at pc %#x: predecode cache miss", c.pc)
}

// Step executes one instruction and returns an error on an architectural
// fault (bad fetch, bad memory access). Stepping a halted core is a no-op.
func (c *CPU) Step() error {
	if c.halted {
		return nil
	}
	pc := c.pc
	idx := (pc - c.base) / isa.WordBytes
	if pc%isa.WordBytes != 0 || pc < c.base || idx >= uint32(len(c.dec)) || !c.decOK[idx] {
		return c.fetchSlow()
	}
	ins := c.dec[idx]

	next := pc + isa.WordBytes
	c.cycles += ins.Op.Cycles()
	c.instret++

	// ALU second operand (register or immediate form). Hoisted out of the
	// per-op cases so the switch body stays closure-free: closures here sit
	// on the hottest path of the whole co-simulation.
	op2 := c.regs[ins.Rm]
	if ins.HasImm {
		op2 = uint32(ins.Imm)
	}

	switch ins.Op {
	case isa.NOP:
	case isa.HALT:
		c.halted = true
	case isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR,
		isa.LSL, isa.LSR, isa.ASR, isa.MUL, isa.MOV, isa.MVN:
		// One definition of the data semantics: the same lowered functions
		// the block translator compiles into micro-ops (isa.ALUFunc).
		c.regs[ins.Rd] = isa.EvalALU(ins.Op, c.regs[ins.Rn], op2)
	case isa.CMP:
		a, b := int32(c.regs[ins.Rn]), int32(op2)
		c.flagEQ = a == b
		c.flagLT = a < b
	case isa.LDR:
		v, err := c.loadWord(c.regs[ins.Rn] + uint32(ins.Imm))
		if err != nil {
			return err
		}
		c.regs[ins.Rd] = v
	case isa.STR:
		if err := c.storeWord(c.regs[ins.Rn]+uint32(ins.Imm), c.regs[ins.Rd]); err != nil {
			return err
		}

	case isa.B:
		next = c.takeTo(pc, next+uint32(ins.Imm)*isa.WordBytes, KindDirect)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		taken, _ := isa.CondTaken(ins.Op, c.flagEQ, c.flagLT)
		if taken {
			next = c.takeTo(pc, next+uint32(ins.Imm)*isa.WordBytes, KindDirect)
		} else {
			// Not-taken waypoints still retire an atom-worthy event.
			c.retireBranch(pc, next, KindDirect, false)
		}
	case isa.BL:
		c.regs[isa.LR] = next
		next = c.takeTo(pc, next+uint32(ins.Imm)*isa.WordBytes, KindCall)
	case isa.BLR:
		c.regs[isa.LR] = next
		next = c.takeTo(pc, c.regs[ins.Rm], KindIndCall)
	case isa.BR:
		next = c.takeTo(pc, c.regs[ins.Rm], KindIndirect)
	case isa.RET:
		next = c.takeTo(pc, c.regs[isa.LR], KindReturn)
	case isa.SVC:
		// The kernel entry/exit cost is in SVC's base cycle count; the
		// event target encodes the service number for feature mapping.
		c.retireBranch(pc, SyscallTarget(ins.Imm), KindSyscall, true)
	default:
		return fmt.Errorf("cpu: unimplemented opcode %v at %#x", ins.Op, pc)
	}

	c.pc = next
	return nil
}

// Run executes up to maxInstr instructions, stopping early at HALT or on an
// architectural fault. It returns the number of instructions retired during
// this call.
//
// This is the tiered engine's dispatch loop: execution proceeds whole basic
// blocks at a time from the translation cache (translated lazily, entry
// point by entry point — see translate.go), with precise budget accounting
// across partial-block quantum boundaries. Anything the block engine does
// not handle — unfused control flow, traps, faults, halts, unliftable entry
// points — executes through the generic Step, which is the single source of
// truth for per-instruction semantics. The two tiers are bit-identical in
// architectural state, counters and retired event streams (see
// FuzzCPUTiers and the equivalence suites).
func (c *CPU) Run(maxInstr int64) (int64, error) {
	start := c.instret
	end := start + maxInstr
	tc := c.cache
	for !c.halted && c.instret < end {
		pc := c.pc
		idx := (pc - c.base) / isa.WordBytes
		if pc%isa.WordBytes == 0 && pc >= c.base && idx < uint32(len(tc.slots)) {
			b := tc.slots[idx].Load()
			if b == nil {
				b = tc.translate(idx)
				tc.slots[idx].Store(b)
			}
			if len(b.code) != 0 && c.execBlock(b, end-c.instret) > 0 {
				continue
			}
			// Zero progress: the entry point is unliftable (noBlock), the
			// first micro-op needs more budget than remains (a fused pair
			// at a 1-instruction quantum edge), or it is about to fault.
			// Step retires the lead instruction or reports the canonical
			// error.
		}
		if err := c.Step(); err != nil {
			return c.instret - start, err
		}
	}
	return c.instret - start, nil
}

// Stats is a snapshot of the core's performance counters.
type Stats struct {
	Cycles      int64
	Instret     int64
	StallCycles int64
	InstrCycles int64
	Branches    int64 // all retired branch instructions (incl. not-taken)
	Calls       int64
	Returns     int64
	Indirects   int64
	Syscalls    int64
}

// Stats returns the current counter snapshot.
func (c *CPU) Stats() Stats {
	var total int64
	for _, n := range c.kindCounts {
		total += n
	}
	return Stats{
		Cycles:      c.cycles,
		Instret:     c.instret,
		StallCycles: c.stallCycles,
		InstrCycles: c.instrCycles,
		Branches:    total,
		Calls:       c.kindCounts[KindCall] + c.kindCounts[KindIndCall],
		Returns:     c.kindCounts[KindReturn],
		Indirects:   c.kindCounts[KindIndirect] + c.kindCounts[KindIndCall],
		Syscalls:    c.kindCounts[KindSyscall],
	}
}
