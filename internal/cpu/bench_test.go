package cpu

import (
	"strings"
	"testing"

	"rtad/internal/isa"
)

// straightSrc maximises block length: a 64-instruction unrolled body of
// ALU ops and fused address-formation/memory pairs, re-entered by one
// unconditional back-edge. This is the block engine's best case.
var straightSrc = "mov r1, #0\nloop:\n" + strings.Repeat(`
	add r2, r1, #8
	ldr r3, [r2, #0]
	add r4, r3, #1
	str r4, [r2, #4]
	eor r5, r4, r3
	lsl r6, r5, #2
	orr r1, r6, #4
	and r1, r1, #252
`, 8) + "	b loop\n"

// branchySrcBench is branch-dominated: three-instruction blocks ending in a
// fused CMP+Bcc, the block engine's worst case and the paper grid's common
// case (hot loop back-edges).
const branchySrcBench = `
	mov r0, #0
loop:
	add r0, r0, #1
	cmp r0, #64
	blt loop
	mov r0, #0
	b loop
`

// BenchmarkCPURun measures the tiered engine's sustained interpretation
// rate on straight-line and branchy mixes. The perf-smoke CI job runs it
// at -benchtime 1x, where the zero-alloc assertion is the gate.
func BenchmarkCPURun(b *testing.B) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"straight", straightSrc},
		{"branchy", branchySrcBench},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := isa.Assemble(tc.src, 0x8000)
			if err != nil {
				b.Fatal(err)
			}
			null := SinkFunc(func(BranchEvent) int64 { return 0 })
			c := New(prog, Config{Mode: ModeRTAD, Sink: null, WXProtect: true})
			// Warm the translation cache — including the suffix blocks that
			// quantum boundaries create at every in-block offset (1-instr
			// quanta walk each pc) — then pin the steady state to zero heap
			// allocations per dispatch.
			for i := 0; i < 256; i++ {
				if _, err := c.Run(1); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Run(1 << 16); err != nil {
				b.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := c.Run(1 << 12); err != nil {
					b.Fatal(err)
				}
			}); allocs > 0 {
				b.Fatalf("block engine allocates %.2f objects/op in steady state, want 0", allocs)
			}
			const instrPerOp = 1 << 20
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(instrPerOp); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			mips := float64(b.N) * instrPerOp / 1e6 / b.Elapsed().Seconds()
			b.ReportMetric(mips, "Minstr/s")
		})
	}
}
