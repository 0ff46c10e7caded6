// Package kernels lowers the trained ML models onto the ML-MIAOW compute
// engine: it lays out quantised model images in device memory, carries the
// inference-engine kernel sources (the code MCM triggers per input vector),
// and provides bit-exact Go reference implementations used to verify the
// kernels and the trimmed hardware (step 4 of the trimming flow).
package kernels

import (
	"fmt"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// Judgment is the inference engine's verdict for one input vector, as read
// back from device memory by the MCM RX engine.
type Judgment struct {
	Anomaly bool
	MarginQ int32 // this vector's margin score (Q16.16)
	EwmaQ   int32 // smoothed score the threshold compares against
}

// ELM deployment shape. These mirror ml.DefaultELMConfig and are frozen by
// the kernel code: 8 input positions over a 32-class alphabet into 80
// hidden units (five 16-lane slices — one wavefront per ML-MIAOW CU) and a
// 32-class readout.
const (
	ELMWindow = 9
	ELMVocab  = 32
	ELMHidden = 80
	ELMWaves  = 5
	elmSlice  = ELMHidden / ELMWaves // 16 rows per wavefront
)

// ELM device-memory layout (word addresses).
const (
	ELMSigLUT = 16
	ELMB1     = ELMSigLUT + ml.LUTSize
	ELMW1     = ELMB1 + ELMHidden
	ELMBeta   = ELMW1 + (ELMWindow-1)*ELMVocab*ELMHidden
	ELMImgEnd = ELMBeta + ELMHidden*ELMVocab
	ELMIn     = 24576 // input vector: ELMWindow class IDs
	ELMPart   = 24768 // partial logits [ELMWaves][ELMVocab]
	ELMOut    = 24960 // flag, margin, ewma
	ELMEwma   = 24976 // persistent smoothed score
	ELMMemEnd = 25088
)

// elmHiddenSrc is the per-CU inference kernel: wavefront w computes hidden
// slice [16w,16w+16) by gathering W1 columns for the window's classes,
// applies the LUT sigmoid, then accumulates the slice's contribution to all
// 32 class logits into its partial buffer.
//
// SArgs: s0=W1 s1=B1 s2=Beta s3=In s4=Part s5=SigLUT
const elmHiddenSrc = `
	; ---- phase 1: hidden slice on 16 lanes ----
	s_setexec_cnt #16
	s_lsl s6, s15, #4        ; w*16 = first row of the slice
	v_mov v1, s6
	v_add v1, v1, v0         ; global hidden row
	v_mov v2, s1
	v_add v2, v2, v1
	flat_load v3, [v2+#0]    ; acc = b1[row]
	s_mov s7, #0             ; j
xloop:
	s_add s8, s3, s7
	s_load s9, [s8+#0]       ; c_j
	s_lsl s10, s7, #5        ; j*32
	s_add s10, s10, s9       ; j*32 + c
	s_mul s10, s10, #80      ; *Hidden
	s_add s10, s10, s0
	v_mov v2, s10
	v_add v2, v2, v1
	flat_load v4, [v2+#0]    ; W1[j][c][row]
	v_add v3, v3, v4
	s_add s7, s7, #1
	s_cmp_lt s7, #8
	s_cbranch_scc1 xloop
	; ---- LUT sigmoid ----
	v_add v4, v3, #2048
	v_asr v4, v4, #12
	v_add v4, v4, #128
	v_max v4, v4, #0
	v_min v4, v4, #255
	v_add v4, v4, s5
	flat_load v5, [v4+#0]    ; sigma(h) in Q16.16
	ds_write v5, [v0+#0]     ; slice-local stash for phase 2 broadcasts
	; ---- phase 2: partial logits on 32 lanes ----
	s_setexec_cnt #32
	v_mov v7, #0             ; partial[v]
	s_mov s7, #0             ; slice-local k
kloop:
	ds_read v8, [s7+#0]      ; broadcast sigma(h_k)
	s_add s8, s6, s7         ; global k
	s_lsl s9, s8, #5         ; *Vocab
	v_mov v9, s9
	v_add v9, v9, v0
	v_add v9, v9, s2
	flat_load v10, [v9+#0]   ; beta[k][v]
	v_mac_q16 v7, v8, v10
	s_add s7, s7, #1
	s_cmp_lt s7, #16
	s_cbranch_scc1 kloop
	s_lsl s8, s15, #5        ; w*Vocab
	v_mov v9, s8
	v_add v9, v9, v0
	v_add v9, v9, s4
	flat_store v7, [v9+#0]
	s_endpgm
`

// elmReduceSrc sums the per-wave partials into class logits, computes the
// margin (max logit minus the logit of the class that actually occurred),
// folds it into the engine's persistent EWMA and compares against the
// threshold; lane 0 writes the judgment.
//
// SArgs: s0=Part s1=In s2=Out s3=EwmaAddr s4=ThresholdQ s5=AlphaQ
const elmReduceSrc = `
	s_setexec_cnt #32
	v_mov v1, #0
	s_mov s6, #0
wloop:
	s_lsl s7, s6, #5
	v_mov v2, s7
	v_add v2, v2, v0
	v_add v2, v2, s0
	flat_load v3, [v2+#0]
	v_add v1, v1, v3
	s_add s6, s6, #1
	s_cmp_lt s6, #5
	s_cbranch_scc1 wloop
	; logits live in v1 (32 lanes); stash a copy, then max-tree in place
	ds_write v1, [v0+#64]
	ds_write v1, [v0+#0]
	s_setexec_cnt #16
	ds_read v2, [v0+#0]
	ds_read v3, [v0+#16]
	v_max v2, v2, v3
	ds_write v2, [v0+#0]
	s_setexec_cnt #8
	ds_read v2, [v0+#0]
	ds_read v3, [v0+#8]
	v_max v2, v2, v3
	ds_write v2, [v0+#0]
	s_setexec_cnt #4
	ds_read v2, [v0+#0]
	ds_read v3, [v0+#4]
	v_max v2, v2, v3
	ds_write v2, [v0+#0]
	s_setexec_cnt #2
	ds_read v2, [v0+#0]
	ds_read v3, [v0+#2]
	v_max v2, v2, v3
	ds_write v2, [v0+#0]
	s_setexec_cnt #1
	ds_read v2, [v0+#0]
	ds_read v3, [v0+#1]
	v_max v2, v2, v3         ; max logit
	s_load s7, [s1+#8]       ; target class = in[Window-1]
	ds_read v4, [s7+#64]     ; logits[target]
	v_sub v5, v2, v4         ; margin
	; ewma' = ewma + alpha*(margin - ewma)
	s_load s8, [s3+#0]
	v_mov v6, s8
	v_sub v7, v5, v6
	v_mul_q16 v7, v7, s5
	v_add v6, v6, v7
	v_mov v8, s3
	flat_store v6, [v8+#0]
	; flag = ewma > threshold
	v_mov v9, s4
	v_cmp_gt v6, v9
	v_mov v10, #1
	v_mov v11, #0
	v_cndmask v12, v10, v11
	v_mov v8, s2
	flat_store v12, [v8+#0]
	flat_store v5, [v8+#1]
	flat_store v6, [v8+#2]
	s_endpgm
`

// DefaultEwmaAlpha is the smoothing factor of the in-engine score EWMA.
const DefaultEwmaAlpha = 0.25

// ELMEngine runs ELM inference on a device, mirroring the MCM driver's view
// of the model: a memory image, two kernels, and per-inference dispatches.
type ELMEngine struct {
	Dev     *gpu.Device
	Model   *ml.ELM
	kHidden *gpu.Kernel
	kReduce *gpu.Kernel
	alphaQ  int32
	thrQ    int32

	// refEwma and refParams track the reference implementation's shadow
	// state and parameter view for InferRef.
	refEwma   int32
	refParams *ml.ELMParamsQ
}

// BuildELMImage quantises the model into the device image (words 0..ELMImgEnd).
func BuildELMImage(m *ml.ELM) ([]uint32, error) {
	cfg := m.Cfg
	if cfg.Window != ELMWindow || cfg.Vocab != ELMVocab || cfg.Hidden != ELMHidden {
		return nil, fmt.Errorf("kernels: ELM shape %+v does not match the deployed kernel (%d/%d/%d)",
			cfg, ELMWindow, ELMVocab, ELMHidden)
	}
	img := make([]uint32, ELMImgEnd)
	copy(img[ELMSigLUT:], ml.SigmoidLUT())
	for r := 0; r < ELMHidden; r++ {
		img[ELMB1+r] = uint32(ml.ToQ(m.B1[r]))
	}
	for j := 0; j < ELMWindow-1; j++ {
		for c := 0; c < ELMVocab; c++ {
			col := j*ELMVocab + c
			base := ELMW1 + col*ELMHidden
			for r := 0; r < ELMHidden; r++ {
				img[base+r] = uint32(ml.ToQ(m.W1.At(r, col)))
			}
		}
	}
	for k := 0; k < ELMHidden; k++ {
		for v := 0; v < ELMVocab; v++ {
			img[ELMBeta+k*ELMVocab+v] = uint32(ml.ToQ(m.BetaT.At(v, k)))
		}
	}
	return img, nil
}

// NewELMEngine loads the model image onto dev and prepares the kernels.
func NewELMEngine(dev *gpu.Device, m *ml.ELM) (*ELMEngine, error) {
	if len(dev.Mem) < ELMMemEnd {
		return nil, fmt.Errorf("kernels: device memory %d words, need %d", len(dev.Mem), ELMMemEnd)
	}
	img, err := BuildELMImage(m)
	if err != nil {
		return nil, err
	}
	if err := dev.WriteWords(0, img); err != nil {
		return nil, err
	}
	e := &ELMEngine{
		Dev:     dev,
		Model:   m,
		kHidden: gpu.MustAssemble("elm_hidden", elmHiddenSrc),
		kReduce: gpu.MustAssemble("elm_reduce", elmReduceSrc),
		alphaQ:  ml.ToQ(DefaultEwmaAlpha),
		thrQ:    ml.ToQ(m.Threshold),
	}
	dev.Mem[ELMEwma] = 0
	return e, nil
}

// InputWords quantises a window into the words the MCM TX engine writes.
func (e *ELMEngine) InputWords(window []int32) ([]uint32, error) {
	if len(window) != ELMWindow {
		return nil, fmt.Errorf("kernels: ELM window length %d, want %d", len(window), ELMWindow)
	}
	out := make([]uint32, ELMWindow)
	for i, c := range window {
		if c < 0 || c >= ELMVocab {
			return nil, fmt.Errorf("kernels: class %d outside ELM vocab", c)
		}
		out[i] = uint32(c)
	}
	return out, nil
}

// Infer runs one inference on the device and returns the judgment plus the
// total engine cycles (both dispatches, scheduled over the device's CUs).
func (e *ELMEngine) Infer(window []int32) (Judgment, int64, error) {
	in, err := e.InputWords(window)
	if err != nil {
		return Judgment{}, 0, err
	}
	if err := e.Dev.WriteWords(ELMIn, in); err != nil {
		return Judgment{}, 0, err
	}
	r1, err := e.Dev.Run(gpu.Dispatch{
		Kernel:     e.kHidden,
		Wavefronts: ELMWaves,
		SArgs:      []uint32{ELMW1, ELMB1, ELMBeta, ELMIn, ELMPart, ELMSigLUT},
	})
	if err != nil {
		return Judgment{}, 0, err
	}
	r2, err := e.Dev.Run(gpu.Dispatch{
		Kernel:     e.kReduce,
		Wavefronts: 1,
		SArgs:      []uint32{ELMPart, ELMIn, ELMOut, ELMEwma, uint32(e.thrQ), uint32(e.alphaQ)},
	})
	if err != nil {
		return Judgment{}, 0, err
	}
	j := Judgment{
		Anomaly: e.Dev.Mem[ELMOut] != 0,
		MarginQ: int32(e.Dev.Mem[ELMOut+1]),
		EwmaQ:   int32(e.Dev.Mem[ELMOut+2]),
	}
	return j, r1.Cycles + r2.Cycles, nil
}

// ELMParamsView maps the deployed ELM memory layout onto mem as a shared
// fixed-point parameter view (internal/ml), the single forward-pass
// implementation behind InferRef and the native backend.
func ELMParamsView(mem []uint32) *ml.ELMParamsQ {
	return &ml.ELMParamsQ{
		Window: ELMWindow,
		Vocab:  ELMVocab,
		Hidden: ELMHidden,
		SigLUT: mem[ELMSigLUT : ELMSigLUT+ml.LUTSize],
		B1:     mem[ELMB1 : ELMB1+ELMHidden],
		W1:     mem[ELMW1:ELMBeta],
		Beta:   mem[ELMBeta : ELMBeta+ELMHidden*ELMVocab],
	}
}

// InferRef is the bit-exact Go reference of the kernel pair, used to verify
// the device (and its trimmed variant) per the flow's step 4.
func (e *ELMEngine) InferRef(window []int32) (Judgment, error) {
	in, err := e.InputWords(window)
	if err != nil {
		return Judgment{}, err
	}
	if e.refParams == nil {
		e.refParams = ELMParamsView(e.Dev.Mem)
	}
	margin := e.refParams.MarginQ(in)
	e.refEwma = ml.EwmaStepQ(e.refEwma, margin, e.alphaQ)
	return Judgment{Anomaly: e.refEwma > e.thrQ, MarginQ: margin, EwmaQ: e.refEwma}, nil
}

// InferBatch loops Infer: the cycle-accurate sim schedules each dispatch
// through its pipeline model, so there is nothing to fuse.
func (e *ELMEngine) InferBatch(windows [][]int32) ([]Judgment, []int64, error) {
	return InferLoop(e, windows)
}

// Name implements the backend contract: the GPU engines are the
// cycle-accurate BackendGPU implementation.
func (e *ELMEngine) Name() string { return BackendGPU }

// Window implements the MCM engine contract: the input-vector length.
func (e *ELMEngine) Window() int { return ELMWindow }
