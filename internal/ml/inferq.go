package ml

import "rtad/internal/gpu"

// Shared fixed-point inference. These helpers are the single source of
// truth for the deployed models' Q16.16 forward passes, one kernel per
// model (MarginQ, StepQ): the kernels package's bit-exact Go references
// (trimming-flow step 4), the native inference backend and the serving
// batcher's group pass all run through them, so every path that claims
// bit-identity with the GPU kernels shares one implementation.
//
// The parameter structs hold slice views over a quantised model image —
// typically device memory — and never copy or own the weights. Their
// methods reuse internal scratch buffers, so a params value serves one
// inference at a time (one pipeline, one goroutine), matching how engines
// are used everywhere in this repo.

// ELMParamsQ views a quantised ELM image: Window-1 input positions over a
// Vocab-class alphabet into Hidden units and a Vocab-class readout.
type ELMParamsQ struct {
	Window int
	Vocab  int
	Hidden int
	SigLUT []uint32 // [LUTSize] sigmoid table
	B1     []uint32 // [Hidden] hidden biases
	W1     []uint32 // [(Window-1)*Vocab][Hidden] input weights, row-major by column
	Beta   []uint32 // [Hidden][Vocab] readout weights

	hidden []int32
	logits []int32
}

// MarginQ runs one forward pass over the quantised input words (Window
// class IDs, the last being the branch actually observed) and returns the
// margin score: max logit minus the observed class's logit.
//
// The hidden pass walks W1 column-major: each selected input column is
// Hidden contiguous words added onto all hidden accumulators at once. The
// readout folds four hidden rows into the logits per pass, so each logit
// is loaded and stored once per four rows. Only the order of the exact
// int32 adds differs from the kernels' walk, and wrap-around addition is
// associative and commutative, so the margin is bit-identical to the GPU
// kernels' per-wave partial sums.
func (p *ELMParamsQ) MarginQ(in []uint32) int32 {
	H, V := p.Hidden, p.Vocab
	if len(p.hidden) != H || len(p.logits) != V {
		p.hidden = make([]int32, H)
		p.logits = make([]int32, V)
	}
	hid, logits := p.hidden, p.logits
	for r, b := range p.B1[:len(hid)] {
		hid[r] = int32(b)
	}
	for j := 0; j < p.Window-1; j++ {
		col := j*V + int(in[j])
		for r, w := range p.W1[col*H:][:len(hid)] {
			hid[r] += int32(w)
		}
	}
	for v := range logits {
		logits[v] = 0
	}
	r := 0
	for ; r+4 <= H; r += 4 {
		s0 := SigmoidQ(p.SigLUT, hid[r])
		s1 := SigmoidQ(p.SigLUT, hid[r+1])
		s2 := SigmoidQ(p.SigLUT, hid[r+2])
		s3 := SigmoidQ(p.SigLUT, hid[r+3])
		fold4(logits, p.Beta[r*V:], p.Beta[(r+1)*V:], p.Beta[(r+2)*V:], p.Beta[(r+3)*V:],
			s0, s1, s2, s3)
	}
	for ; r < H; r++ {
		s := SigmoidQ(p.SigLUT, hid[r])
		for v, b := range p.Beta[r*V:][:len(logits)] {
			logits[v] += gpu.MulQ(s, int32(b))
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// LSTMParamsQ views a quantised LSTM image: recency-weighted window
// embedding, NumGates gate banks over the Embed+Hidden concatenated input,
// and a Vocab-class readout.
type LSTMParamsQ struct {
	Window  int
	Vocab   int
	Embed   int
	Hidden  int
	SigLUT  []uint32 // [LUTSize]
	TanhLUT []uint32 // [LUTSize]
	PosW    []uint32 // [Window-1] recency weights
	Emb     []uint32 // [Vocab][Embed]
	Wg      []uint32 // [NumGates][Hidden][Embed+Hidden]
	Bg      []uint32 // [NumGates][Hidden]
	OutW    []uint32 // [Hidden][Vocab]
	OutB    []uint32 // [Vocab]

	xh     []int32
	gates  []int32
	logits []int32
}

// StepQ advances the recurrent state by one timestep: h and c (Hidden
// values each, Q16.16) are read and updated in place, and the returned
// value is the margin score for the window's final class.
//
// The gate pass is register-blocked over output rows: four rows of one
// gate bank advance together over the shared [embedding; h] vector, so
// each activation word loaded feeds four multiply-adds into four register
// accumulators, and rows left over when Hidden is not a multiple of four
// run one at a time. Blocks never straddle two banks, so each bank picks
// its activation table once. The readout folds four hidden rows into the
// logits per pass. Every product keeps its Q16.16 rounding (gpu.MulQ);
// only the order of the exact int32 adds differs from the kernels' walk,
// and wrap-around addition is associative and commutative, so the margin
// and the new state are bit-identical to the GPU kernels' per-wave
// partial sums.
func (p *LSTMParamsQ) StepQ(h, c []int32, in []uint32) int32 {
	H, V, xw := p.Hidden, p.Vocab, p.Embed+p.Hidden
	if len(p.xh) != xw {
		p.xh = make([]int32, xw)
		p.gates = make([]int32, NumGates*H)
		p.logits = make([]int32, V)
	}
	// Window embedding.
	xh := p.xh
	for i := range xh {
		xh[i] = 0
	}
	for j := 0; j < p.Window-1; j++ {
		cls := int(in[j])
		pw := int32(p.PosW[j])
		for e, w := range p.Emb[cls*p.Embed : (cls+1)*p.Embed] {
			xh[e] += gpu.MulQ(int32(w), pw)
		}
	}
	copy(xh[p.Embed:], h)
	// Gates.
	for g := 0; g < NumGates; g++ {
		lut := p.SigLUT
		if g == GateG {
			lut = p.TanhLUT
		}
		bank := p.gates[g*H : (g+1)*H]
		bias := p.Bg[g*H : (g+1)*H]
		wg := p.Wg[g*H*xw : (g+1)*H*xw]
		r := 0
		for ; r+4 <= H; r += 4 {
			a0, a1, a2, a3 := dot4(xh, wg[r*xw:], wg[(r+1)*xw:], wg[(r+2)*xw:], wg[(r+3)*xw:],
				int32(bias[r]), int32(bias[r+1]), int32(bias[r+2]), int32(bias[r+3]))
			bank[r] = int32(lut[LUTIndex(a0)])
			bank[r+1] = int32(lut[LUTIndex(a1)])
			bank[r+2] = int32(lut[LUTIndex(a2)])
			bank[r+3] = int32(lut[LUTIndex(a3)])
		}
		for ; r < H; r++ {
			w := wg[r*xw:][:len(xh)]
			a := int32(bias[r])
			for k, x := range xh {
				a += gpu.MulQ(int32(w[k]), x)
			}
			bank[r] = int32(lut[LUTIndex(a)])
		}
	}
	// State update.
	gi := p.gates[GateI*H : (GateI+1)*H]
	gf := p.gates[GateF*H : (GateF+1)*H]
	gg := p.gates[GateG*H : (GateG+1)*H]
	og := p.gates[GateO*H : (GateO+1)*H]
	for r := range gi {
		cv := gpu.MulQ(gf[r], c[r]) + gpu.MulQ(gi[r], gg[r])
		c[r] = cv
		h[r] = gpu.MulQ(og[r], TanhQ(p.TanhLUT, cv))
	}
	// Readout.
	logits := p.logits
	for v := range logits {
		logits[v] = int32(p.OutB[v])
	}
	k := 0
	for ; k+4 <= H; k += 4 {
		fold4(logits, p.OutW[k*V:], p.OutW[(k+1)*V:], p.OutW[(k+2)*V:], p.OutW[(k+3)*V:],
			h[k], h[k+1], h[k+2], h[k+3])
	}
	for ; k < H; k++ {
		hk := h[k]
		for v, o := range p.OutW[k*V:][:len(logits)] {
			logits[v] += gpu.MulQ(int32(o), hk)
		}
	}
	return MarginOfQ(logits, int(in[p.Window-1]))
}

// dot4 adds the Q16.16 dot products of x with four weight rows (each at
// least len(x) long) onto four accumulators, every product rounded by
// gpu.MulQ. It is a function of its own so that the loop's row pointers
// and accumulators get registers instead of StepQ's spill slots.
func dot4(x []int32, w0, w1, w2, w3 []uint32, a0, a1, a2, a3 int32) (int32, int32, int32, int32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for k, xv := range x {
		a0 += gpu.MulQ(int32(w0[k]), xv)
		a1 += gpu.MulQ(int32(w1[k]), xv)
		a2 += gpu.MulQ(int32(w2[k]), xv)
		a3 += gpu.MulQ(int32(w3[k]), xv)
	}
	return a0, a1, a2, a3
}

// fold4 adds four hidden rows' readout terms onto the logits: weight row
// oi (at least len(logits) long) scaled by hidden value hi, every product
// rounded by gpu.MulQ.
func fold4(logits []int32, o0, o1, o2, o3 []uint32, h0, h1, h2, h3 int32) {
	o0, o1, o2, o3 = o0[:len(logits)], o1[:len(logits)], o2[:len(logits)], o3[:len(logits)]
	for v := range logits {
		logits[v] += gpu.MulQ(int32(o0[v]), h0) + gpu.MulQ(int32(o1[v]), h1) +
			gpu.MulQ(int32(o2[v]), h2) + gpu.MulQ(int32(o3[v]), h3)
	}
}

// MarginOfQ reduces logits to the margin score: max logit minus the target
// class's logit, the kernels' max-tree followed by a subtract.
func MarginOfQ(logits []int32, target int) int32 {
	best := logits[0]
	for _, v := range logits[1:] {
		if v > best {
			best = v
		}
	}
	return best - logits[target]
}

// EwmaStepQ folds a margin into the engine's persistent smoothed score:
// ewma' = ewma + alpha*(margin - ewma), all Q16.16.
func EwmaStepQ(ewma, margin, alpha int32) int32 {
	return ewma + gpu.MulQ(margin-ewma, alpha)
}
