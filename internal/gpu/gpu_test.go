package gpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Table II targets: per-CU footprints of MIAOW and the two trimmed flows.
const (
	miaowLUTs = 180902
	miaowFFs  = 107001
)

func TestBlockTableCalibration(t *testing.T) {
	var lutAll, ffAll int
	for _, b := range Blocks() {
		if b.LUTs <= 0 || b.FFs <= 0 {
			t.Errorf("block %s has non-positive area", b.Name)
		}
		lutAll += b.LUTs
		ffAll += b.FFs
	}
	if lutAll != miaowLUTs {
		t.Errorf("total LUTs = %d, want %d (MIAOW, Table II)", lutAll, miaowLUTs)
	}
	if ffAll != miaowFFs {
		t.Errorf("total FFs = %d, want %d (MIAOW, Table II)", ffAll, miaowFFs)
	}
}

func TestEveryOpHasBlocks(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if len(OpBlocks(op)) == 0 {
			t.Errorf("op %v maps to no HDL blocks", op)
		}
	}
}

func TestMulQ(t *testing.T) {
	cases := []struct{ a, b, want int32 }{
		{QOne, QOne, QOne},
		{QOne / 2, QOne / 2, QOne / 4},
		{3 * QOne, -2 * QOne, -6 * QOne},
		{0, QOne, 0},
		{QOne + QOne/2, 2 * QOne, 3 * QOne},
	}
	for _, c := range cases {
		if got := MulQ(c.a, c.b); got != c.want {
			t.Errorf("MulQ(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Property: MulQ(a, QOne) == a (no 32-bit overflow in intermediate).
	prop := func(a int32) bool { return MulQ(a, QOne) == a }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func run(t *testing.T, src string, disp Dispatch) (*Device, *Result) {
	t.Helper()
	k, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(4096, 1)
	disp.Kernel = k
	res, err := d.Run(disp)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestScalarALUAndBranch(t *testing.T) {
	// Sum 1..10 in s2, store at mem[100].
	d, _ := run(t, `
		s_mov s1, #0     ; i
		s_mov s2, #0     ; sum
	loop:
		s_add s1, s1, #1
		s_add s2, s2, s1
		s_cmp_lt s1, #10
		s_cbranch_scc1 loop
		s_mov s3, #100
		s_store s2, [s3+#0]
		s_endpgm
	`, Dispatch{})
	if d.Mem[100] != 55 {
		t.Errorf("mem[100] = %d, want 55", d.Mem[100])
	}
}

func TestVectorLanesAndExecMask(t *testing.T) {
	// Each enabled lane writes laneid*2+5 to mem[200+lane]; only the first
	// 8 lanes are enabled.
	d, _ := run(t, `
		s_setexec_cnt #8
		v_mov v1, #2
		v_mul v2, v0, v1
		v_add v2, v2, #5
		v_mov v3, #200
		v_add v3, v3, v0
		flat_store v2, [v3+#0]
		s_endpgm
	`, Dispatch{})
	for l := 0; l < 8; l++ {
		if got := d.Mem[200+l]; got != uint32(l*2+5) {
			t.Errorf("lane %d: mem = %d, want %d", l, got, l*2+5)
		}
	}
	if d.Mem[208] != 0 {
		t.Error("disabled lane 8 wrote memory")
	}
}

func TestLDSRoundTripAndReadlane(t *testing.T) {
	d, _ := run(t, `
		v_mov v1, v0
		ds_write v1, [v0+#0]
		ds_read v2, [v0+#0]
		v_readlane s4, v2, #7
		s_mov s5, #300
		s_store s4, [s5+#0]
		s_endpgm
	`, Dispatch{})
	if d.Mem[300] != 7 {
		t.Errorf("readlane got %d, want 7", d.Mem[300])
	}
}

func TestVCmpCndmask(t *testing.T) {
	// dst = lane < 4 ? 111 : 222
	d, _ := run(t, `
		v_cmp_lt v0, #4
		v_mov v1, #111
		v_mov v2, #222
		v_cndmask v3, v1, v2
		v_mov v4, #400
		v_add v4, v4, v0
		flat_store v3, [v4+#0]
		s_endpgm
	`, Dispatch{})
	for l := 0; l < WaveLanes; l++ {
		want := uint32(222)
		if l < 4 {
			want = 111
		}
		if d.Mem[400+l] != want {
			t.Errorf("lane %d = %d, want %d", l, d.Mem[400+l], want)
		}
	}
}

func TestQ16MatvecAgainstReference(t *testing.T) {
	// y[r] = sum_k W[r][k] * x[k] for 64 rows x 16 cols, row per lane.
	const rows, cols = WaveLanes, 16
	const wBase, xBase, yBase = 0, 2048, 3000
	d := NewDevice(4096, 1)
	// Deterministic Q16.16 test data.
	wv := make([]uint32, rows*cols)
	xv := make([]uint32, cols)
	for i := range wv {
		wv[i] = uint32(int32(i%17-8) * (QOne / 8))
	}
	for i := range xv {
		xv[i] = uint32(int32(i%5-2) * (QOne / 4))
	}
	d.WriteWords(wBase, wv)
	d.WriteWords(xBase, xv)

	src := `
		; s0=W base, s1=x base, s2=y base, s3=cols
		v_mov v1, s3
		v_mul v1, v0, v1   ; row offset = lane*cols
		v_add v1, v1, s0   ; &W[row][0]
		v_mov v2, s1       ; &x[0]
		v_mov v3, #0       ; acc
		s_mov s4, #0       ; k
	loop:
		flat_load v4, [v1+#0]
		flat_load v5, [v2+#0]
		v_mac_q16 v3, v4, v5
		v_add v1, v1, #1
		v_add v2, v2, #1
		s_add s4, s4, #1
		s_cmp_lt s4, s3
		s_cbranch_scc1 loop
		v_mov v6, s2
		v_add v6, v6, v0
		flat_store v3, [v6+#0]
		s_endpgm
	`
	k, err := Assemble("matvec", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Dispatch{Kernel: k, SArgs: []uint32{wBase, xBase, yBase, cols}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instructions <= 0 {
		t.Error("no timing recorded")
	}
	for r := 0; r < rows; r++ {
		var want int32
		for c := 0; c < cols; c++ {
			want += MulQ(int32(wv[r*cols+c]), int32(xv[c]))
		}
		if got := int32(d.Mem[yBase+r]); got != want {
			t.Fatalf("row %d: got %d, want %d", r, got, want)
		}
	}
}

func TestMultiWavefrontAndCUScheduling(t *testing.T) {
	// Each wavefront stores its ID; makespan scales with CU count.
	src := `
		v_mov v1, s15
		v_mov v2, #500
		v_add v2, v2, s15
		s_setexec_cnt #1
		flat_store v1, [v2+#0]
		s_endpgm
	`
	k := MustAssemble("waves", src)
	d1 := NewDevice(4096, 1)
	r1, err := d1.Run(Dispatch{Kernel: k, Wavefronts: 10})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 10; w++ {
		if d1.Mem[500+w] != uint32(w) {
			t.Errorf("wave %d wrote %d", w, d1.Mem[500+w])
		}
	}
	d5 := NewDevice(4096, 5)
	r5, err := d5.Run(Dispatch{Kernel: k, Wavefronts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r5.Cycles >= r1.Cycles {
		t.Errorf("5 CUs (%d cycles) not faster than 1 CU (%d)", r5.Cycles, r1.Cycles)
	}
	// Ideal scaling bound: 10 identical waves on 5 CUs = 2 rounds.
	if want := r1.Cycles / 5; r5.Cycles != want {
		t.Errorf("5-CU makespan = %d, want %d", r5.Cycles, want)
	}
}

func TestCoverageCollection(t *testing.T) {
	k := MustAssemble("cov", `
		v_mov v1, #3
		v_mul_q16 v2, v1, v1
		s_endpgm
	`)
	d := NewDevice(1024, 1)
	d.EnableCoverage()
	if _, err := d.Run(Dispatch{Kernel: k}); err != nil {
		t.Fatal(err)
	}
	cov := d.Coverage()
	for _, b := range []BlockID{BFetch, BIssue, BDecVALU, BVALUMulQ, BVALULogic, BBranchUnit} {
		if !cov[b] {
			t.Errorf("block %v not covered", b)
		}
	}
	for _, b := range []BlockID{BVALUF32FMA, BTexSampler, BAtomics, BLDSCtrl} {
		if cov[b] {
			t.Errorf("block %v covered but never exercised", b)
		}
	}
}

func TestTrimTrap(t *testing.T) {
	k := MustAssemble("trap", `
		ds_write v0, [v0+#0]
		s_endpgm
	`)
	// Build a keep-set without the LDS block.
	var keep CoverageSet
	for i := range keep {
		keep[i] = true
	}
	keep[BLDSCtrl] = false
	d := NewDevice(1024, 1)
	d.SetTrim(keep)
	_, err := d.Run(Dispatch{Kernel: k})
	if err == nil || !strings.Contains(err.Error(), "trap") {
		t.Fatalf("trimmed-block execution did not trap: %v", err)
	}
}

func TestRunawayKernelBudget(t *testing.T) {
	k := MustAssemble("spin", `
	top:
		s_branch top
	`)
	d := NewDevice(64, 1)
	if _, err := d.Run(Dispatch{Kernel: k, MaxInstrs: 1000}); err == nil {
		t.Error("runaway kernel not stopped")
	}
}

func TestMemoryBounds(t *testing.T) {
	cases := []string{
		"s_mov s1, #99999\n s_load s2, [s1+#0]\n s_endpgm",
		"v_mov v1, #99999\n flat_store v0, [v1+#0]\n s_endpgm",
		"v_mov v1, #999999\n ds_read v2, [v1+#0]\n s_endpgm",
	}
	for _, src := range cases {
		k := MustAssemble("oob", src)
		d := NewDevice(64, 1)
		if _, err := d.Run(Dispatch{Kernel: k}); err == nil {
			t.Errorf("out-of-bounds access not caught: %q", src)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"bogus s1, s2",
		"s_branch nowhere",
		"s_mov v1, #0",           // wrong reg class
		"v_readlane s1, v1, #99", // lane out of range
		"v_mov v1",               // missing operand
		"flat_load s1, [v1+#0]",  // scalar dst on vector load
		"ds_write v1, v2",        // missing brackets
		"dup:\ndup:\ns_endpgm",   // duplicate label
		"s_mov s40, #0",          // register out of range
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("assembled invalid source %q", src)
		}
	}
}

func TestVectorOpCosts(t *testing.T) {
	if SADD.Cycles() != 1 {
		t.Error("scalar add should be single-cycle")
	}
	if VADD.Cycles() != int64(ValuBeats) {
		t.Errorf("vector op cost %d, want %d beats", VADD.Cycles(), ValuBeats)
	}
	if FLATLOAD.Cycles() <= DSREAD.Cycles() {
		t.Error("global load must cost more than LDS read")
	}
	if DSREAD.Cycles() <= VADD.Cycles() {
		t.Error("LDS read must cost more than a vector ALU op")
	}
}

func TestExecMaskInteractions(t *testing.T) {
	// Narrow, compute, widen: disabled lanes must keep their old values,
	// and s_setexec_vcc must adopt the compare result as the new mask.
	d, _ := run(t, `
		v_mov v1, #7          ; all 64 lanes
		s_setexec_cnt #4
		v_mov v1, #9          ; lanes 0-3 only
		s_setexec_all
		v_cmp_lt v0, #2
		s_setexec_vcc         ; lanes 0,1
		v_mov v1, #5
		s_setexec_all
		v_mov v2, #600
		v_add v2, v2, v0
		flat_store v1, [v2+#0]
		s_endpgm
	`, Dispatch{})
	want := func(l int) uint32 {
		switch {
		case l < 2:
			return 5
		case l < 4:
			return 9
		default:
			return 7
		}
	}
	for l := 0; l < WaveLanes; l++ {
		if got := d.Mem[600+l]; got != want(l) {
			t.Errorf("lane %d = %d, want %d", l, got, want(l))
		}
	}
}

func TestVCmpClearsVCCForDisabledLanes(t *testing.T) {
	d, _ := run(t, `
		s_setexec_cnt #2
		v_cmp_lt v0, #64       ; true for enabled lanes only
		s_setexec_all
		v_mov v1, #1
		v_mov v2, #0
		v_cndmask v3, v1, v2   ; 1 where vcc
		v_mov v4, #700
		v_add v4, v4, v0
		flat_store v3, [v4+#0]
		s_endpgm
	`, Dispatch{})
	for l := 0; l < WaveLanes; l++ {
		want := uint32(0)
		if l < 2 {
			want = 1
		}
		if got := d.Mem[700+l]; got != want {
			t.Errorf("lane %d vcc-select = %d, want %d", l, got, want)
		}
	}
}

func TestDispatchLanesPerWave(t *testing.T) {
	k := MustAssemble("partial", `
		v_mov v1, #800
		v_add v1, v1, v0
		flat_store v0, [v1+#0]
		s_endpgm
	`)
	d := NewDevice(1024, 1)
	if _, err := d.Run(Dispatch{Kernel: k, LanesPerWave: 5}); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 8; l++ {
		got := d.Mem[800+l]
		if l < 5 && got != uint32(l) {
			t.Errorf("enabled lane %d wrote %d", l, got)
		}
		if l >= 5 && got != 0 {
			t.Errorf("disabled lane %d wrote %d", l, got)
		}
	}
}

func TestScalarShiftAndCompareVariants(t *testing.T) {
	d, _ := run(t, `
		s_mov s1, #-8
		s_lsr s2, s1, #28     ; logical shift of a negative value
		s_mov s3, #3
		s_cmp_le s3, #3
		s_cbranch_scc0 bad
		s_cmp_ne s3, #4
		s_cbranch_scc0 bad
		s_cmp_ge s3, #4
		s_cbranch_scc1 bad
		s_mov s4, #1
		s_mov s5, #900
		s_store s4, [s5+#0]
		s_store s2, [s5+#1]
		s_endpgm
	bad:
		s_endpgm
	`, Dispatch{})
	if d.Mem[900] != 1 {
		t.Fatal("scalar compare chain took the wrong path")
	}
	if d.Mem[901] != 0xF {
		t.Errorf("s_lsr of -8>>28 = %#x, want 0xF", d.Mem[901])
	}
}

func TestVectorASRSignExtends(t *testing.T) {
	d, _ := run(t, `
		v_mov v1, #-256
		v_asr v2, v1, #4
		v_lsr v3, v1, #4
		s_setexec_cnt #1
		v_mov v4, #950
		flat_store v2, [v4+#0]
		flat_store v3, [v4+#1]
		s_endpgm
	`, Dispatch{})
	if int32(d.Mem[950]) != -16 {
		t.Errorf("v_asr(-256,4) = %d, want -16", int32(d.Mem[950]))
	}
	if int32(d.Mem[951]) == -16 {
		t.Error("v_lsr behaved like v_asr")
	}
}

// TestRandomScalarProgramsDifferential generates random straight-line
// scalar ALU programs and checks the machine against a direct Go
// evaluation of the same operations — a differential test of the scalar
// datapath beyond the hand-written cases.
func TestRandomScalarProgramsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ops := []Op{SADD, SSUB, SMUL, SAND, SOR, SXOR, SLSL, SLSR}
	for trial := 0; trial < 60; trial++ {
		k := &Kernel{Name: "rand", Labels: map[string]int{}}
		ref := [NumSGPR]uint32{}
		// Seed a few registers.
		for rgt := 1; rgt <= 6; rgt++ {
			v := int32(r.Intn(1 << 12))
			k.Code = append(k.Code, Instr{Op: SMOV, Dst: sreg(uint8(rgt)), A: immOp(v)})
			ref[rgt] = uint32(v)
		}
		for n := 0; n < 40; n++ {
			op := ops[r.Intn(len(ops))]
			rd := uint8(1 + r.Intn(10))
			ra := uint8(1 + r.Intn(10))
			rb := uint8(1 + r.Intn(10))
			k.Code = append(k.Code, Instr{Op: op, Dst: sreg(rd), A: sreg(ra), B: sreg(rb)})
			a, b := ref[ra], ref[rb]
			switch op {
			case SADD:
				ref[rd] = a + b
			case SSUB:
				ref[rd] = a - b
			case SMUL:
				ref[rd] = uint32(int32(a) * int32(b))
			case SAND:
				ref[rd] = a & b
			case SOR:
				ref[rd] = a | b
			case SXOR:
				ref[rd] = a ^ b
			case SLSL:
				ref[rd] = a << (b & 31)
			case SLSR:
				ref[rd] = a >> (b & 31)
			}
		}
		// Store every live register to memory for comparison.
		base := uint8(12)
		k.Code = append(k.Code, Instr{Op: SMOV, Dst: sreg(base), A: immOp(100)})
		for rgt := 1; rgt <= 10; rgt++ {
			k.Code = append(k.Code, Instr{
				Op: SSTOREW, A: sreg(uint8(rgt)), B: sreg(base), Imm: int32(rgt),
			})
		}
		k.Code = append(k.Code, Instr{Op: SENDPGM})
		d := NewDevice(1024, 1)
		if _, err := d.Run(Dispatch{Kernel: k}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for rgt := 1; rgt <= 10; rgt++ {
			if got := d.Mem[100+rgt]; got != ref[rgt] {
				t.Fatalf("trial %d: s%d = %#x, reference %#x", trial, rgt, got, ref[rgt])
			}
		}
	}
}
