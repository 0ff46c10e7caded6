package cpu

import (
	"testing"

	"rtad/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, src string, cfg Config) *CPU {
	t.Helper()
	c := New(mustAssemble(t, src), cfg)
	if _, err := c.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !c.halted {
		t.Fatal("program did not halt")
	}
	return c
}

func TestALUSemantics(t *testing.T) {
	c := run(t, `
		mov r0, #6
		mov r1, #7
		mul r2, r0, r1   ; 42
		add r3, r2, #100 ; 142
		sub r4, r3, r0   ; 136
		and r5, r2, #15  ; 10
		orr r6, r5, #32  ; 42
		eor r7, r6, r6   ; 0
		lsl r8, r0, #4   ; 96
		lsr r9, r8, #2   ; 24
		mvn r11, r7      ; 0xffffffff
		asr r12, r11, #8 ; still 0xffffffff (sign extension)
		halt
	`, Config{})
	want := map[isa.Reg]uint32{
		isa.R2: 42, isa.R3: 142, isa.R4: 136, isa.R5: 10, isa.R6: 42,
		isa.R7: 0, isa.R8: 96, isa.R9: 24, isa.R11: 0xffffffff, isa.R12: 0xffffffff,
	}
	for r, v := range want {
		if got := c.regs[r]; got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestLoopAndFlags(t *testing.T) {
	// Sum 1..10 with a conditional loop.
	c := run(t, `
		mov r0, #0
		mov r1, #1
	loop:
		cmp r1, #10
		bge done
		add r0, r0, r1
		add r1, r1, #1
		b loop
	done:
		add r0, r0, r1 ; include the final 10
		halt
	`, Config{})
	if got := c.regs[isa.R0]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemory(t *testing.T) {
	c := run(t, `
		mov r0, #1234
		str r0, [r10, #8]
		ldr r1, [r10, #8]
		halt
	`, Config{})
	if got := c.regs[isa.R1]; got != 1234 {
		t.Errorf("loaded %d, want 1234", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	for _, src := range []string{
		"mov r0, #2\n ldr r1, [r0, #1]\n halt", // unaligned
		"mvn r0, #0\n str r1, [r0, #0]\n halt", // out of range
	} {
		c := New(mustAssemble(t, src), Config{})
		if _, err := c.Run(100); err == nil {
			t.Errorf("no fault for %q", src)
		}
	}
}

func TestCallReturnIndirect(t *testing.T) {
	// Assemble a program exercising every transfer kind, with a sink.
	prog := mustAssemble(t, `
	start:
		bl f
		svc #5
		mov r4, #0
		cmp r4, #0
		beq taken
	nottaken:
		nop
	taken:
		halt
	f:
		ret
	`)
	sink2 := &CollectSink{}
	cc := New(prog, Config{Mode: ModeRTAD, Sink: sink2})
	if _, err := cc.Run(100); err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, ev := range sink2.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindCall, KindReturn, KindSyscall, KindDirect}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	// The call event must carry the return-address side effect.
	if sink2.Events[0].Target != prog.Symbols["f"] {
		t.Errorf("call target = %#x, want %#x", sink2.Events[0].Target, prog.Symbols["f"])
	}
	// The syscall event encodes its service number in the target.
	if n := SyscallNumber(sink2.Events[2].Target); n != 5 {
		t.Errorf("syscall number = %d, want 5", n)
	}
	if !sink2.Events[3].Taken {
		t.Error("beq should have been taken")
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	// Register-indirect targets are preloaded from the symbol table, the
	// way a loader would relocate function pointers.
	prog := mustAssemble(t, `
		blr r4   ; call dest
		br  r6   ; jump fin
	dest:
		ret
	fin:
		halt
	`)
	sink := &CollectSink{TakenOnly: true}
	c := New(prog, Config{Mode: ModeRTAD, Sink: sink})
	c.regs[isa.R4] = prog.Symbols["dest"]
	c.regs[isa.R6] = prog.Symbols["fin"]
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if !c.halted {
		t.Fatal("did not halt")
	}
	want := []Kind{KindIndCall, KindReturn, KindIndirect}
	if len(sink.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(sink.Events))
	}
	for i, k := range want {
		if sink.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, sink.Events[i].Kind, k)
		}
	}
}

func TestNotTakenEventsReported(t *testing.T) {
	sink := &CollectSink{}
	prog := mustAssemble(t, `
		mov r0, #1
		cmp r0, #2
		beq never
		halt
	never:
		halt
	`)
	c := New(prog, Config{Mode: ModeRTAD, Sink: sink})
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(sink.Events) != 1 || sink.Events[0].Taken {
		t.Fatalf("want one not-taken event, got %+v", sink.Events)
	}
}

func TestBaselineModeSuppressesSink(t *testing.T) {
	sink := &CollectSink{}
	prog := mustAssemble(t, "b next\nnext:\nhalt")
	c := New(prog, Config{Mode: ModeBaseline, Sink: sink})
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(sink.Events) != 0 {
		t.Errorf("baseline mode leaked %d events", len(sink.Events))
	}
}

func TestInstrumentationCosts(t *testing.T) {
	if c := InstrumentationCost(ModeSWAll, KindDirect); c <= 0 {
		t.Error("SW_ALL must charge for direct branches")
	}
	if c := InstrumentationCost(ModeSWFunc, KindCall); c <= 0 {
		t.Error("SW_FUNC must charge for calls")
	}
	if c := InstrumentationCost(ModeSWFunc, KindDirect); c != 0 {
		t.Error("SW_FUNC must not charge for plain branches")
	}
	if c := InstrumentationCost(ModeSWSys, KindSyscall); c != syscallTraceCost {
		t.Error("SW_SYS must charge the strace cost for syscalls")
	}
	if c := InstrumentationCost(ModeSWSys, KindCall); c != 0 {
		t.Error("SW_SYS must not charge for calls")
	}
	if c := InstrumentationCost(ModeRTAD, KindDirect); c != 0 {
		t.Error("RTAD charges no instrumentation cycles")
	}
	// Overhead ordering that Fig 6 depends on: per-event costs satisfy
	// branch stub < call stub < syscall trace.
	if !(InstrumentationCost(ModeSWAll, KindDirect) < InstrumentationCost(ModeSWFunc, KindCall)*3 &&
		InstrumentationCost(ModeSWFunc, KindCall) < syscallTraceCost) {
		t.Error("per-event instrumentation cost ordering broken")
	}
}

func TestModeOverheadOrdering(t *testing.T) {
	// A branchy program with calls and occasional syscalls; the mode
	// overheads must order Baseline < SW_SYS < SW_FUNC < SW_ALL.
	// Event frequencies matter: syscalls must be much rarer than calls,
	// which are rarer than branches, as in the SPEC-like workloads.
	src := `
		mov r0, #0
		mov r1, #4000
	loop:
		cmp r0, r1
		bge done
		add r0, r0, #1
		and r2, r0, #2047
		cmp r2, #0
		bne skipsvc
		svc #1
	skipsvc:
		and r2, r0, #3
		cmp r2, #0
		bne skipcall
		bl fn
	skipcall:
		b loop
	fn:
		add r3, r3, #1
		ret
	done:
		halt
	`
	cycles := map[Mode]int64{}
	for _, m := range []Mode{ModeBaseline, ModeSWSys, ModeSWFunc, ModeSWAll} {
		c := run(t, src, Config{Mode: m})
		cycles[m] = c.Cycles()
	}
	if !(cycles[ModeBaseline] < cycles[ModeSWSys] &&
		cycles[ModeSWSys] < cycles[ModeSWFunc] &&
		cycles[ModeSWFunc] < cycles[ModeSWAll]) {
		t.Errorf("overhead ordering broken: %v", cycles)
	}
}

func TestSinkStallAccounting(t *testing.T) {
	prog := mustAssemble(t, `
		mov r0, #0
	loop:
		add r0, r0, #1
		cmp r0, #10
		blt loop
		halt
	`)
	stall := SinkFunc(func(ev BranchEvent) int64 { return 5 })
	c := New(prog, Config{Mode: ModeRTAD, Sink: stall})
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.StallCycles() == 0 {
		t.Error("stall cycles not accounted")
	}
	if c.StallCycles()%5 != 0 {
		t.Errorf("stall cycles = %d, want multiple of 5", c.StallCycles())
	}
	st := c.Stats()
	if st.StallCycles != c.StallCycles() || st.Instret != c.Instret() {
		t.Error("Stats snapshot inconsistent")
	}
}

func TestEventCycleMonotonic(t *testing.T) {
	var last int64 = -1
	mono := true
	sink := SinkFunc(func(ev BranchEvent) int64 {
		if ev.Cycle < last {
			mono = false
		}
		last = ev.Cycle
		return 0
	})
	prog := mustAssemble(t, `
		mov r0, #0
	loop:
		add r0, r0, #1
		bl f
		cmp r0, #50
		blt loop
		halt
	f:
		ret
	`)
	c := New(prog, Config{Mode: ModeRTAD, Sink: sink})
	if _, err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	if !mono {
		t.Error("branch event cycles not monotonic")
	}
}

func TestRunBudget(t *testing.T) {
	prog := mustAssemble(t, "loop: b loop")
	c := New(prog, Config{})
	n, err := c.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("ran %d instructions, want 1000", n)
	}
	if c.halted {
		t.Error("infinite loop cannot halt")
	}
}

func TestSyscallNumberRoundTrip(t *testing.T) {
	for _, n := range []int32{0, 1, 17, 255} {
		if got := SyscallNumber(SyscallTarget(n)); got != n {
			t.Errorf("round trip %d -> %d", n, got)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !KindReturn.IsIndirectKind() || KindDirect.IsIndirectKind() {
		t.Error("IsIndirectKind misclassifies")
	}
}

func TestInstrumentationCycleAccounting(t *testing.T) {
	src := `
		mov r0, #0
	loop:
		add r0, r0, #1
		bl f
		cmp r0, #20
		blt loop
		halt
	f:
		ret
	`
	c := run(t, src, Config{Mode: ModeSWFunc})
	if c.InstrumentationCycles() == 0 {
		t.Fatal("SW_FUNC charged no instrumentation cycles")
	}
	// 20 calls, each charged the call stub exactly once.
	want := 20 * InstrumentationCost(ModeSWFunc, KindCall)
	if got := c.InstrumentationCycles(); got != want {
		t.Errorf("instrumentation cycles = %d, want %d", got, want)
	}
	if c.kindCounts[KindCall] != 20 || c.kindCounts[KindReturn] != 20 {
		t.Errorf("call/return counts = %d/%d, want 20/20",
			c.kindCounts[KindCall], c.kindCounts[KindReturn])
	}
	st := c.Stats()
	if st.InstrCycles != want {
		t.Errorf("Stats.InstrCycles = %d, want %d", st.InstrCycles, want)
	}
}

func TestWXProtection(t *testing.T) {
	// A store aimed at the code region must fault under W^X and succeed
	// (into the separate data RAM alias) without it.
	src := `
		mov r0, #2048
		lsl r0, r0, #4  ; 0x8000, the program base
		mov r1, #1
		str r1, [r0, #0]
		halt
	`
	open := New(mustAssemble(t, src), Config{})
	if _, err := open.Run(10); err != nil {
		t.Fatalf("without W^X: %v", err)
	}
	locked := New(mustAssemble(t, src), Config{WXProtect: true})
	if _, err := locked.Run(10); err == nil {
		t.Fatal("store into code region did not fault under W^X")
	}
	// Ordinary data stores are unaffected.
	benign := New(mustAssemble(t, "mov r0, #7\n str r0, [r10, #64]\n halt"), Config{WXProtect: true})
	if _, err := benign.Run(10); err != nil {
		t.Fatalf("benign store faulted: %v", err)
	}
}
