package gpu

import "fmt"

// BlockID names one HDL block of the compute unit: the granularity at which
// the paper's flow measures code coverage and trims logic (Fig 4). Block
// areas are calibrated so that the full set reproduces the published MIAOW
// footprint (Table II: 180,902 LUTs / 107,001 FFs per CU) and the subset
// exercised by the ELM+LSTM kernels reproduces the ML-MIAOW footprint
// (36,743 LUTs / 15,275 FFs, an 82 % trim).
type BlockID uint8

// Category groups blocks the way the MIAOW2.0 trimming tool sees the
// design: that tool analyses target-application instructions and trims only
// within ALU and instruction-decoder sub-blocks, while the RTAD flow trims
// any block whose HDL lines are uncovered (§II, Table II).
type Category uint8

// Block categories.
const (
	CatInfra  Category = iota // fetch/issue/regfile/wave control
	CatDecode                 // instruction decoder sub-blocks
	CatALU                    // scalar/vector execution units
	CatMem                    // memory-path blocks beyond the core ALUs
	CatOther                  // texture, interpolation, atomics, debug, ...
)

// Block is one trimmable hardware block with its FPGA footprint.
type Block struct {
	ID    BlockID
	Name  string
	Cat   Category
	LUTs  int
	FFs   int
	BRAMs int
}

// Block identifiers. The numeric order is also the report order.
const (
	// Infrastructure — exercised by any program.
	BFetch BlockID = iota
	BDecodeCore
	BIssue
	BSGPRFile
	BVGPRCtrl
	BExecMask
	BWaveCtrl
	BLDSCtrl
	BFlatIF
	// Execution units used by the inference kernels.
	BSALUInt
	BSALUCmp
	BBranchUnit
	BVALUAdd
	BVALULogic
	BVALUShift
	BVALUMulQ
	BVALUCmp
	BVALUCndMask
	BVALUReadLane
	// Decoder sub-blocks for the used classes.
	BDecSALU
	BDecVALU
	BDecMem
	BDecBranch
	// Floating-point and other datapaths a GPGPU carries but branch-ML
	// inference never touches (trimmed by both flows).
	BVALUF32Add
	BVALUF32Mul
	BVALUF32FMA
	BVALUF32Div
	BVALUF32Sqrt
	BVALUF64
	BVALUTrans
	BVALUInt64
	BVALUFmtConv
	BSALUUnused
	BDecFP
	BDecUnused
	// Non-ALU/decoder machinery only the coverage-driven flow removes.
	BTexSampler
	BImageStore
	BInterp
	BAtomics
	BGDS
	BMsgUnit
	BScalarCache
	BVCacheTags
	BMSHR
	BMultiWGBarrier
	BPerfDebug

	NumBlocks
)

// blockTable lists every block with its calibrated area. Sums:
//
//	all blocks:                 180,902 LUTs / 107,001 FFs  (MIAOW)
//	kernel-covered blocks:       35,943 LUTs /  15,025 FFs  (ML-MIAOW;
//	   the cross-lane readlane unit is listed with the used classes but the
//	   deployed kernels reduce through the LDS instead, so it trims too)
//	covered + non-ALU/decoder:   97,222 LUTs /  70,499 FFs  (MIAOW2.0)
var blockTable = [NumBlocks]Block{
	BFetch:        {BFetch, "fetch", CatInfra, 2243, 905, 0},
	BDecodeCore:   {BDecodeCore, "decode_core", CatInfra, 1800, 600, 0},
	BIssue:        {BIssue, "issue", CatInfra, 2600, 1100, 0},
	BSGPRFile:     {BSGPRFile, "sgpr_file", CatInfra, 900, 1100, 0},
	BVGPRCtrl:     {BVGPRCtrl, "vgpr_ctrl", CatInfra, 1400, 820, 16},
	BExecMask:     {BExecMask, "exec_mask", CatInfra, 700, 300, 0},
	BWaveCtrl:     {BWaveCtrl, "wave_ctrl", CatInfra, 1600, 900, 0},
	BLDSCtrl:      {BLDSCtrl, "lds_ctrl", CatInfra, 2400, 1000, 12},
	BFlatIF:       {BFlatIF, "flat_mem_if", CatInfra, 3200, 1400, 0},
	BSALUInt:      {BSALUInt, "salu_int", CatALU, 2800, 700, 0},
	BSALUCmp:      {BSALUCmp, "salu_cmp", CatALU, 600, 150, 0},
	BBranchUnit:   {BBranchUnit, "branch_unit", CatALU, 700, 220, 0},
	BVALUAdd:      {BVALUAdd, "valu_int_add", CatALU, 3500, 1000, 0},
	BVALULogic:    {BVALULogic, "valu_logic", CatALU, 1800, 500, 0},
	BVALUShift:    {BVALUShift, "valu_shift", CatALU, 2100, 450, 0},
	BVALUMulQ:     {BVALUMulQ, "valu_mul_q16", CatALU, 5200, 1500, 0},
	BVALUCmp:      {BVALUCmp, "valu_cmp", CatALU, 900, 300, 0},
	BVALUCndMask:  {BVALUCndMask, "valu_cndmask", CatALU, 500, 150, 0},
	BVALUReadLane: {BVALUReadLane, "valu_readlane", CatALU, 800, 250, 0},
	BDecSALU:      {BDecSALU, "dec_salu", CatDecode, 250, 400, 0},
	BDecVALU:      {BDecVALU, "dec_valu", CatDecode, 350, 600, 0},
	BDecMem:       {BDecMem, "dec_mem", CatDecode, 250, 500, 0},
	BDecBranch:    {BDecBranch, "dec_branch", CatDecode, 150, 430, 0},

	BVALUF32Add:  {BVALUF32Add, "valu_f32_add", CatALU, 9000, 2500, 0},
	BVALUF32Mul:  {BVALUF32Mul, "valu_f32_mul", CatALU, 11000, 3000, 0},
	BVALUF32FMA:  {BVALUF32FMA, "valu_f32_fma", CatALU, 16000, 8750, 0},
	BVALUF32Div:  {BVALUF32Div, "valu_f32_div", CatALU, 9500, 5752, 0},
	BVALUF32Sqrt: {BVALUF32Sqrt, "valu_f32_sqrt", CatALU, 4500, 1200, 0},
	BVALUF64:     {BVALUF64, "valu_f64", CatALU, 15580, 10000, 0},
	BVALUTrans:   {BVALUTrans, "valu_transcendental", CatALU, 6000, 1800, 0},
	BVALUInt64:   {BVALUInt64, "valu_int64", CatALU, 4000, 1100, 0},
	BVALUFmtConv: {BVALUFmtConv, "valu_fmt_conv", CatALU, 3000, 900, 0},
	BSALUUnused:  {BSALUUnused, "salu_unused_ops", CatALU, 1800, 500, 0},
	BDecFP:       {BDecFP, "dec_fp", CatDecode, 1500, 450, 0},
	BDecUnused:   {BDecUnused, "dec_unused", CatDecode, 1000, 300, 0},

	BTexSampler:     {BTexSampler, "texture_sampler", CatOther, 14000, 11000, 12},
	BImageStore:     {BImageStore, "image_store", CatOther, 7000, 6000, 0},
	BInterp:         {BInterp, "interpolator", CatOther, 6000, 5000, 0},
	BAtomics:        {BAtomics, "atomic_unit", CatMem, 5000, 4000, 0},
	BGDS:            {BGDS, "gds", CatMem, 4000, 3500, 8},
	BMsgUnit:        {BMsgUnit, "msg_unit", CatOther, 1500, 1200, 0},
	BScalarCache:    {BScalarCache, "scalar_cache", CatMem, 6000, 6500, 8},
	BVCacheTags:     {BVCacheTags, "vector_cache", CatMem, 7500, 8000, 16},
	BMSHR:           {BMSHR, "mshr", CatMem, 3500, 4500, 0},
	BMultiWGBarrier: {BMultiWGBarrier, "multi_wg_barrier", CatOther, 1200, 1500, 0},
	BPerfDebug:      {BPerfDebug, "perf_debug", CatOther, 5579, 4274, 0},
}

// Blocks returns the full block table (a copy).
func Blocks() []Block {
	out := make([]Block, NumBlocks)
	copy(out[:], blockTable[:])
	return out
}

// String names the block.
func (id BlockID) String() string {
	if id < NumBlocks {
		return blockTable[id].Name
	}
	return fmt.Sprintf("block(%d)", uint8(id))
}

// infraBlocks are touched by any executing wavefront.
var infraBlocks = []BlockID{
	BFetch, BDecodeCore, BIssue, BSGPRFile, BVGPRCtrl, BExecMask, BWaveCtrl,
}

// opBlocks maps each opcode to the HDL blocks its execution exercises
// beyond the infrastructure set.
var opBlocks = func() [numOps][]BlockID {
	var m [numOps][]BlockID
	salu := []BlockID{BDecSALU, BSALUInt}
	scmp := []BlockID{BDecSALU, BSALUCmp}
	br := []BlockID{BDecBranch, BBranchUnit}
	for op := SMOV; op <= SLSR; op++ {
		m[op] = salu
	}
	for op := SCMPLT; op <= SCMPGE; op++ {
		m[op] = scmp
	}
	for _, op := range []Op{SBRANCH, SCBRANCH1, SCBRANCH0, SENDPGM, SNOP, SBARRIER} {
		m[op] = br
	}
	for _, op := range []Op{SSETEXECALL, SSETEXECVCC, SSETEXECCNT} {
		m[op] = []BlockID{BDecSALU, BExecMask}
	}
	m[SLOADW] = []BlockID{BDecMem, BFlatIF}
	m[SSTOREW] = []BlockID{BDecMem, BFlatIF}
	m[VMOV] = []BlockID{BDecVALU, BVALULogic}
	m[VADD] = []BlockID{BDecVALU, BVALUAdd}
	m[VSUB] = []BlockID{BDecVALU, BVALUAdd}
	m[VMUL] = []BlockID{BDecVALU, BVALUMulQ}
	m[VMULQ] = []BlockID{BDecVALU, BVALUMulQ}
	m[VMACQ] = []BlockID{BDecVALU, BVALUMulQ, BVALUAdd}
	for _, op := range []Op{VAND, VOR, VXOR} {
		m[op] = []BlockID{BDecVALU, BVALULogic}
	}
	for _, op := range []Op{VLSL, VLSR, VASR} {
		m[op] = []BlockID{BDecVALU, BVALUShift}
	}
	for _, op := range []Op{VMIN, VMAX} {
		m[op] = []BlockID{BDecVALU, BVALUCmp, BVALUCndMask}
	}
	for _, op := range []Op{VCMPLT, VCMPEQ, VCMPGT} {
		m[op] = []BlockID{BDecVALU, BVALUCmp}
	}
	m[VCNDMASK] = []BlockID{BDecVALU, BVALUCndMask}
	m[VREADLANE] = []BlockID{BDecVALU, BVALUReadLane}
	m[DSREAD] = []BlockID{BDecMem, BLDSCtrl}
	m[DSWRITE] = []BlockID{BDecMem, BLDSCtrl}
	m[FLATLOAD] = []BlockID{BDecMem, BFlatIF}
	m[FLATSTORE] = []BlockID{BDecMem, BFlatIF}
	return m
}()

// OpBlocks returns the blocks op exercises (excluding infrastructure).
func OpBlocks(op Op) []BlockID {
	if int(op) < len(opBlocks) {
		return opBlocks[op]
	}
	return nil
}

// CoverageSet is the set of exercised blocks.
type CoverageSet [NumBlocks]bool

// Merge ORs other into c (the ICCR merge step of the trimming flow).
func (c *CoverageSet) Merge(other CoverageSet) {
	for i := range c {
		c[i] = c[i] || other[i]
	}
}

// Uncovered lists blocks not in the set.
func (c *CoverageSet) Uncovered() []BlockID {
	var out []BlockID
	for i := BlockID(0); i < NumBlocks; i++ {
		if !c[i] {
			out = append(out, i)
		}
	}
	return out
}
