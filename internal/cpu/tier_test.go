package cpu

import (
	"reflect"
	"sync"
	"testing"

	"rtad/internal/isa"
)

// stepRun executes through Step only, with Run's budget semantics: the
// tier-0 reference every block-engine test and the differential fuzzer
// compare against.
func stepRun(c *CPU, maxInstr int64) (int64, error) {
	start := c.instret
	end := start + maxInstr
	for !c.halted && c.instret < end {
		if err := c.Step(); err != nil {
			return c.instret - start, err
		}
	}
	return c.instret - start, nil
}

// cpuState is a full architectural+counter snapshot for tier comparisons.
type cpuState struct {
	regs           [isa.NumRegs]uint32
	pc             uint32
	flagEQ, flagLT bool
	halted         bool
	stats          Stats
	mem            string
}

func snapshot(c *CPU) cpuState {
	return cpuState{
		regs: c.regs, pc: c.pc,
		flagEQ: c.flagEQ, flagLT: c.flagLT,
		halted: c.halted, stats: c.Stats(),
		mem: string(c.mem),
	}
}

// branchySrc exercises every fusion shape and fallback: a counted loop with
// a fused CMP+Bcc back-edge, fused address formation feeding loads and
// stores, an unfused register-form load, a call/return pair and a syscall.
const branchySrc = `
	mov r0, #0       ; sum
	mov r1, #1       ; i
	mov r5, #64      ; array base
loop:
	add r0, r0, r1
	mov r2, #64
	str r0, [r2, #4] ; fused MOV+STR
	ldr r3, [r2, #4] ; unfused LDR (r2 not freshly written)
	add r4, r5, #8
	ldr r6, [r4, #0] ; fused ADD+LDR
	bl  double
	add r1, r1, #1
	cmp r1, #10
	blt loop         ; fused CMP+Bcc back-edge
	svc #3
	halt
double:
	lsl r3, r3, #1
	ret
`

func TestMisalignedPCError(t *testing.T) {
	b := isa.NewBuilder(0x8000)
	b.LoadConst(isa.R0, 0x8002)
	b.Br(isa.R0)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const want = "cpu: misaligned pc 0x8002"
	for _, tc := range []struct {
		name string
		exec func(c *CPU) error
	}{
		{"run", func(c *CPU) error { _, err := c.Run(100); return err }},
		{"step", func(c *CPU) error { _, err := stepRun(c, 100); return err }},
	} {
		c := New(prog, Config{})
		err := tc.exec(c)
		if err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %q", tc.name, err, want)
		}
	}
}

// TestTierIdentityBranchy proves the block engine and the Step interpreter
// retire bit-identical state, counters and event streams on a workload that
// crosses every fusion and fallback path — at a single full-budget call and
// at pathological 1-instruction quanta landing inside every block and fused
// pair.
func TestTierIdentityBranchy(t *testing.T) {
	prog := mustAssemble(t, branchySrc)
	runners := []struct {
		name string
		exec func(c *CPU) error
	}{
		{"step-only", func(c *CPU) error { _, err := stepRun(c, 1<<20); return err }},
		{"block-full", func(c *CPU) error { _, err := c.Run(1 << 20); return err }},
		{"block-quantum-1", func(c *CPU) error {
			for !c.halted {
				if _, err := c.Run(1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"block-quantum-3", func(c *CPU) error {
			for !c.halted {
				if _, err := c.Run(3); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var ref cpuState
	var refEvents []BranchEvent
	for i, r := range runners {
		sink := &CollectSink{}
		c := New(prog, Config{Mode: ModeRTAD, Sink: sink, WXProtect: true})
		if err := r.exec(c); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := snapshot(c)
		if i == 0 {
			ref, refEvents = got, sink.Events
			continue
		}
		if got != ref {
			t.Errorf("%s: state diverged\n got %+v\nwant %+v", r.name, got, ref)
		}
		if !reflect.DeepEqual(sink.Events, refEvents) {
			t.Errorf("%s: event stream diverged (%d vs %d events)",
				r.name, len(sink.Events), len(refEvents))
		}
	}
}

// TestFusedPairFaultAccounting pins the contract that a fault inside a
// fused pair charges exactly what Step charges: the lead address-forming
// instruction retires (register write, cycles, instret), then the memory
// access faults with the canonical error and Step's fault-time charges.
func TestFusedPairFaultAccounting(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *isa.Builder)
		wx    bool
	}{
		{
			// mov r0,#2 ; ldr r1,[r0] — fused, misaligned load address.
			name: "ldr-misaligned",
			build: func(b *isa.Builder) {
				b.MovImm(isa.R0, 2)
				b.Ldr(isa.R1, isa.R0, 0)
				b.Emit(isa.Instruction{Op: isa.HALT})
			},
		},
		{
			// lsl r0,r0,#15 → 0x8000 ; str — fused, W^X store fault.
			name: "str-wx",
			wx:   true,
			build: func(b *isa.Builder) {
				b.MovImm(isa.R0, 1)
				b.Op3i(isa.LSL, isa.R0, isa.R0, 15)
				b.Str(isa.R1, isa.R0, 0)
				b.Emit(isa.Instruction{Op: isa.HALT})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder(0x8000)
			tc.build(b)
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{WXProtect: tc.wx}
			refC := New(prog, cfg)
			refN, refErr := stepRun(refC, 100)
			if refErr == nil {
				t.Fatal("reference run did not fault")
			}
			blkC := New(prog, cfg)
			blkN, blkErr := blkC.Run(100)
			if blkErr == nil || blkErr.Error() != refErr.Error() {
				t.Fatalf("error = %v, want %v", blkErr, refErr)
			}
			if blkN != refN {
				t.Errorf("retired %d, want %d", blkN, refN)
			}
			if got, want := snapshot(blkC), snapshot(refC); got != want {
				t.Errorf("state diverged\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestQuantumEdgeInsideFusedPair drives a 1-instruction budget straight into
// a fused CMP+Bcc: the compare must retire alone under the quantum and the
// branch must resolve on the next call with identical charges.
func TestQuantumEdgeInsideFusedPair(t *testing.T) {
	src := `
		mov r0, #5
		cmp r0, #5
		beq done
		mov r1, #99
	done:
		halt
	`
	prog := mustAssemble(t, src)
	ref := New(prog, Config{Mode: ModeRTAD, Sink: &CollectSink{}})
	if _, err := stepRun(ref, 1<<20); err != nil {
		t.Fatal(err)
	}
	c := New(prog, Config{Mode: ModeRTAD, Sink: &CollectSink{}})
	var total int64
	for !c.halted {
		n, err := c.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("Run(1) retired %d, want 1", n)
		}
		total += n
	}
	if got, want := snapshot(c), snapshot(ref); got != want {
		t.Errorf("state diverged\n got %+v\nwant %+v", got, want)
	}
	if total != ref.Instret() {
		t.Errorf("retired %d total, want %d", total, ref.Instret())
	}
}

// TestSharedCacheAcrossCores proves the deployment-sharing contract: many
// cores over one Cache, concurrently and lazily filling it, all retire the
// reference stream. Run under -race in CI, this is the proof that the
// lock-free slot publication is sound.
func TestSharedCacheAcrossCores(t *testing.T) {
	prog := mustAssemble(t, branchySrc)
	ref := New(prog, Config{})
	if _, err := stepRun(ref, 1<<20); err != nil {
		t.Fatal(err)
	}
	want := snapshot(ref)
	shared := NewCache(prog)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	states := make([]cpuState, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := New(prog, Config{Cache: shared})
			if c.cache != shared {
				errs[i] = errCacheNotShared
				return
			}
			_, errs[i] = c.Run(1 << 20)
			states[i] = snapshot(c)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("core %d: %v", i, err)
		}
		if states[i] != want {
			t.Errorf("core %d diverged\n got %+v\nwant %+v", i, states[i], want)
		}
	}
}

var errCacheNotShared = errorString("config cache was not adopted")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestMismatchedCacheIgnored: a cache built over a different program must
// not be adopted — a private one is built instead.
func TestMismatchedCacheIgnored(t *testing.T) {
	progA := mustAssemble(t, "halt")
	progB := mustAssemble(t, branchySrc)
	c := New(progB, Config{Cache: NewCache(progA)})
	if c.cache == nil || c.cache.prog != progB {
		t.Fatal("mismatched cache was adopted or none built")
	}
	if _, err := c.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !c.halted {
		t.Fatal("program did not halt")
	}
}
