package ml

import (
	"fmt"
	"math/rand"
	"testing"

	"rtad/internal/gpu"
)

// marginQLegacy is MarginQ as it stood before the kernel was blocked over
// output rows, kept verbatim as the frozen reference the blocked kernel
// must reproduce bit-for-bit: one accumulator per hidden row, gathering
// W1 with stride Hidden, then one readout pass per hidden row.
func marginQLegacy(p *ELMParamsQ, in []uint32) int32 {
	logits := make([]int32, p.Vocab)
	for row := 0; row < p.Hidden; row++ {
		acc := int32(p.B1[row])
		for j := 0; j < p.Window-1; j++ {
			col := j*p.Vocab + int(in[j])
			acc += int32(p.W1[col*p.Hidden+row])
		}
		sig := SigmoidQ(p.SigLUT, acc)
		beta := p.Beta[row*p.Vocab : (row+1)*p.Vocab]
		for v, b := range beta {
			logits[v] += gpu.MulQ(sig, int32(b))
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// stepQLegacy is StepQ as it stood before the kernel was blocked over
// output rows, kept verbatim as the frozen reference: each gate row walks
// the [embedding; h] vector with one accumulator, and the readout adds one
// hidden row into the logits per pass.
func stepQLegacy(p *LSTMParamsQ, h, c []int32, in []uint32) int32 {
	xw := p.Embed + p.Hidden
	xh := make([]int32, xw)
	gates := make([]int32, NumGates*p.Hidden)
	logits := make([]int32, p.Vocab)
	// Window embedding.
	for j := 0; j < p.Window-1; j++ {
		cls := int(in[j])
		pw := int32(p.PosW[j])
		emb := p.Emb[cls*p.Embed : (cls+1)*p.Embed]
		for e, w := range emb {
			xh[e] += gpu.MulQ(int32(w), pw)
		}
	}
	copy(xh[p.Embed:], h)
	// Gates.
	for g := 0; g < NumGates; g++ {
		for r := 0; r < p.Hidden; r++ {
			acc := int32(p.Bg[g*p.Hidden+r])
			w := p.Wg[(g*p.Hidden+r)*xw : (g*p.Hidden+r+1)*xw]
			for k, wk := range w {
				acc += gpu.MulQ(int32(wk), xh[k])
			}
			if g == GateG {
				gates[g*p.Hidden+r] = TanhQ(p.TanhLUT, acc)
			} else {
				gates[g*p.Hidden+r] = SigmoidQ(p.SigLUT, acc)
			}
		}
	}
	// State update.
	for r := 0; r < p.Hidden; r++ {
		cv := gpu.MulQ(gates[GateF*p.Hidden+r], c[r]) + gpu.MulQ(gates[GateI*p.Hidden+r], gates[GateG*p.Hidden+r])
		c[r] = cv
		h[r] = gpu.MulQ(gates[GateO*p.Hidden+r], TanhQ(p.TanhLUT, cv))
	}
	// Readout.
	for v := 0; v < p.Vocab; v++ {
		logits[v] = int32(p.OutB[v])
	}
	for k := 0; k < p.Hidden; k++ {
		w := h[k]
		row := p.OutW[k*p.Vocab : (k+1)*p.Vocab]
		for v, o := range row {
			logits[v] += gpu.MulQ(int32(o), w)
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// randQ returns a Q16.16 value in roughly [-4, 4) — the magnitude range
// trained weights land in after quantisation.
func randQ(rng *rand.Rand) uint32 {
	return uint32(int32(rng.Intn(1<<19) - 1<<18))
}

func randQVec(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = randQ(rng)
	}
	return out
}

func randELMParams(rng *rand.Rand, window, vocab, hidden int) *ELMParamsQ {
	p := &ELMParamsQ{Window: window, Vocab: vocab, Hidden: hidden, SigLUT: SigmoidLUT()}
	p.B1 = randQVec(rng, p.Hidden)
	p.W1 = randQVec(rng, (p.Window-1)*p.Vocab*p.Hidden)
	p.Beta = randQVec(rng, p.Hidden*p.Vocab)
	return p
}

func randLSTMParams(rng *rand.Rand, window, vocab, embed, hidden int) *LSTMParamsQ {
	p := &LSTMParamsQ{Window: window, Vocab: vocab, Embed: embed, Hidden: hidden,
		SigLUT: SigmoidLUT(), TanhLUT: TanhLUT()}
	p.PosW = randQVec(rng, p.Window-1)
	p.Emb = randQVec(rng, p.Vocab*p.Embed)
	p.Wg = randQVec(rng, NumGates*p.Hidden*(p.Embed+p.Hidden))
	p.Bg = randQVec(rng, NumGates*p.Hidden)
	p.OutW = randQVec(rng, p.Hidden*p.Vocab)
	p.OutB = randQVec(rng, p.Vocab)
	return p
}

func randWindows(rng *rand.Rand, window, vocab, n int) []uint32 {
	out := make([]uint32, n*window)
	for i := range out {
		out[i] = uint32(rng.Intn(vocab))
	}
	return out
}

// kernelSteps is how many windows each frozen-reference test runs per
// shape; the LSTM chains its state through all of them.
const kernelSteps = 10_000

// TestMarginQMatchesFrozenReference pins the blocked ELM kernel to the
// frozen reference at the deployed dims (9/32/80) and on shapes whose
// Hidden leaves a tail of one, two and three rows after the four-row
// blocks, with odd Vocab.
func TestMarginQMatchesFrozenReference(t *testing.T) {
	for i, shape := range []struct{ window, vocab, hidden int }{
		{9, 32, 80}, // deployed
		{5, 7, 6},   // Hidden % 4 == 2
		{4, 5, 1},   // a tail row and no block
		{6, 11, 13}, // Hidden % 4 == 1
		{3, 9, 7},   // Hidden % 4 == 3
	} {
		t.Run(fmt.Sprintf("%d/%d/%d", shape.window, shape.vocab, shape.hidden), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + i)))
			p := randELMParams(rng, shape.window, shape.vocab, shape.hidden)
			in := randWindows(rng, p.Window, p.Vocab, kernelSteps)
			for s := 0; s < kernelSteps; s++ {
				win := in[s*p.Window : (s+1)*p.Window]
				if got, want := p.MarginQ(win), marginQLegacy(p, win); got != want {
					t.Fatalf("window %d: margin %d, reference %d", s, got, want)
				}
			}
		})
	}
}

// TestStepQMatchesFrozenReference pins the blocked LSTM kernel to the
// frozen reference over a long chain of steps from a random state, so any
// divergence in h or c compounds: at the deployed dims (16/64/16/32) and
// on shapes with Hidden % 4 of 1, 2 and 3 and odd Vocab and Embed. A
// four-row block that straddled two gate banks would apply the wrong
// activation to some rows, which only these tail shapes can show.
func TestStepQMatchesFrozenReference(t *testing.T) {
	for i, shape := range []struct{ window, vocab, embed, hidden int }{
		{16, 64, 16, 32}, // deployed
		{6, 9, 4, 5},     // Hidden % 4 == 1
		{5, 7, 3, 6},     // Hidden % 4 == 2
		{7, 13, 5, 7},    // Hidden % 4 == 3
		{4, 5, 1, 1},     // a tail row and no block
		{9, 31, 9, 11},   // Hidden % 4 == 3, wider
	} {
		t.Run(fmt.Sprintf("%d/%d/%d/%d", shape.window, shape.vocab, shape.embed, shape.hidden), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(13 + i)))
			p := randLSTMParams(rng, shape.window, shape.vocab, shape.embed, shape.hidden)
			h := make([]int32, p.Hidden)
			c := make([]int32, p.Hidden)
			for r := range h {
				h[r] = int32(randQ(rng))
				c[r] = int32(randQ(rng))
			}
			refH := append([]int32(nil), h...)
			refC := append([]int32(nil), c...)
			in := randWindows(rng, p.Window, p.Vocab, kernelSteps)
			for s := 0; s < kernelSteps; s++ {
				win := in[s*p.Window : (s+1)*p.Window]
				if got, want := p.StepQ(h, c, win), stepQLegacy(p, refH, refC, win); got != want {
					t.Fatalf("step %d: margin %d, reference %d", s, got, want)
				}
				for r := range h {
					if h[r] != refH[r] || c[r] != refC[r] {
						t.Fatalf("step %d: state row %d diverged (h %d/%d c %d/%d)",
							s, r, h[r], refH[r], c[r], refC[r])
					}
				}
			}
		})
	}
}

// The kernels' zero-allocation contract and their cost at the deployed
// dims: 32 windows per iteration, the batcher's fused pass over 32
// sessions' rows. Each benchmark asserts the warmed kernel allocates
// nothing per call before timing, so -benchtime 1x catches an allocation
// regression.
const benchRows = 32

func BenchmarkMarginQx32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randELMParams(rng, 9, 32, 80)
	in := randWindows(rng, p.Window, p.Vocab, benchRows)
	run := func() {
		for r := 0; r < benchRows; r++ {
			p.MarginQ(in[r*p.Window : (r+1)*p.Window])
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		b.Fatalf("MarginQ allocates %.1f times per 32 windows", a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkStepQx32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := randLSTMParams(rng, 16, 64, 16, 32)
	in := randWindows(rng, p.Window, p.Vocab, benchRows)
	h := make([]int32, benchRows*p.Hidden)
	c := make([]int32, benchRows*p.Hidden)
	run := func() {
		for r := 0; r < benchRows; r++ {
			p.StepQ(h[r*p.Hidden:(r+1)*p.Hidden], c[r*p.Hidden:(r+1)*p.Hidden],
				in[r*p.Window:(r+1)*p.Window])
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		b.Fatalf("StepQ allocates %.1f times per 32 windows", a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
