package cpu

import (
	"reflect"
	"testing"

	"rtad/internal/isa"
)

// fuzzProgram deterministically derives a small program from fuzz input:
// a biased opcode mix heavy on the liftable classes (ALU, CMP, memory) with
// direct and conditional branches constrained to land inside the image, so
// runs are mostly well-defined but still reach every fault and fallback
// path. Returns nil when the input cannot produce an encodable program.
func fuzzProgram(data []byte) *isa.Program {
	if len(data) < 8 {
		return nil
	}
	n := 16 + int(data[0])%48
	pos := 1
	next := func() byte {
		v := data[pos%len(data)]
		pos++
		return v
	}
	b := isa.NewBuilder(0x8000)
	// A couple of in-range memory bases so loads/stores are not all faults.
	b.MovImm(isa.R1, 512)
	b.MovImm(isa.R2, 2048)
	const prelude = 2
	aluOps := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR,
		isa.LSL, isa.LSR, isa.ASR, isa.MUL, isa.MOV, isa.MVN,
	}
	condOps := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE}
	for i := 0; i < n; i++ {
		rd := isa.Reg(next() % uint8(isa.NumRegs))
		rn := isa.Reg(next() % uint8(isa.NumRegs))
		rm := isa.Reg(next() % uint8(isa.NumRegs))
		// Branch offsets land on a word inside [0, prelude+n+1): the whole
		// generated body including the trailing HALT.
		branchImm := func(v byte) int32 {
			target := int32(int(v) % (prelude + n + 1))
			return target - int32(prelude+i) - 1
		}
		switch op := next() % 32; {
		case op < 8:
			b.Op3(aluOps[int(op)%len(aluOps)], rd, rn, rm)
		case op < 14:
			b.Op3i(aluOps[int(next())%len(aluOps)], rd, rn, int32(int8(next())))
		case op < 16:
			b.MovImm(rd, int32(int8(next())))
		case op < 18:
			b.Cmp(rn, rm)
		case op < 20:
			b.CmpImm(rn, int32(int8(next())))
		case op < 23:
			b.Ldr(rd, rn, int32(int8(next())))
		case op < 26:
			b.Str(rd, rn, int32(int8(next())))
		case op < 28:
			b.Emit(isa.Instruction{Op: condOps[int(next())%len(condOps)], Imm: branchImm(next())})
		case op < 29:
			b.Emit(isa.Instruction{Op: isa.B, Imm: branchImm(next())})
		case op < 30:
			b.Emit(isa.Instruction{Op: isa.BL, Imm: branchImm(next())})
		case op < 31:
			b.Svc(int32(next() % 16))
		default:
			// Indirect transfers: mostly fault or loop, both tiers must
			// agree either way.
			switch next() % 3 {
			case 0:
				b.Ret()
			case 1:
				b.Br(rm)
			default:
				b.Blr(rm)
			}
		}
	}
	b.Emit(isa.Instruction{Op: isa.HALT})
	prog, err := b.Build()
	if err != nil {
		return nil
	}
	return prog
}

// FuzzCPUTiers differentially tests the execution tiers: the same program
// under the same config runs through the Step-only reference, the block
// engine at full budget, the block engine at small quanta, and the block
// engine over a shared pre-warmed cache. All four must retire bit-identical
// registers, memory, PC, flags, counters, event streams, and errors.
func FuzzCPUTiers(f *testing.F) {
	f.Add([]byte("straight-line alu mix 0123456789 abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte("loopy: branches and compares RRRRRRRRRRRR <<<< >>>> ===="))
	f.Add([]byte{0x40, 0xff, 0x13, 0x80, 0x7f, 0x02, 0x55, 0xaa, 0x31, 0x17, 0xfe, 0x60})
	f.Add([]byte("mem heavy \x17\x17\x17\x17\x17\x17\x17\x17\x17\x17\x17\x17\x17\x17"))
	f.Add([]byte("\x05faults: \xff\xff\xff\xff indirect \x1f\x1f\x1f\x1f\x1f\x1f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		if prog == nil {
			t.Skip("unencodable input")
		}
		mode := []Mode{ModeBaseline, ModeRTAD, ModeSWAll}[int(data[1])%3]
		wx := data[2]&1 == 0
		quantum := 1 + int64(data[3]%7)
		const budget = 4096
		type result struct {
			state  cpuState
			events []BranchEvent
			n      int64
			err    string
		}
		exec := func(f func(c *CPU) (int64, error), cache *Cache) result {
			sink := &CollectSink{}
			c := New(prog, Config{Mode: mode, Sink: sink, WXProtect: wx, Cache: cache})
			n, err := f(c)
			r := result{state: snapshot(c), events: sink.Events, n: n}
			if err != nil {
				r.err = err.Error()
			}
			return r
		}
		chunked := func(c *CPU) (int64, error) {
			var total int64
			for total < budget && !c.halted {
				q := quantum
				if rem := budget - total; q > rem {
					q = rem
				}
				n, err := c.Run(q)
				total += n
				if err != nil {
					return total, err
				}
				if n == 0 {
					break
				}
			}
			return total, nil
		}
		ref := exec(func(c *CPU) (int64, error) { return stepRun(c, budget) }, nil)
		shared := NewCache(prog)
		for name, got := range map[string]result{
			"block-full":    exec(func(c *CPU) (int64, error) { return c.Run(budget) }, nil),
			"block-chunked": exec(chunked, nil),
			"block-shared":  exec(chunked, shared),
		} {
			if got.state != ref.state {
				t.Errorf("%s: state diverged\n got %+v\nwant %+v", name, got.state, ref.state)
			}
			if got.n != ref.n {
				t.Errorf("%s: retired %d, want %d", name, got.n, ref.n)
			}
			if got.err != ref.err {
				t.Errorf("%s: error %q, want %q", name, got.err, ref.err)
			}
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Errorf("%s: event stream diverged (%d vs %d events)",
					name, len(got.events), len(ref.events))
			}
		}
	})
}
