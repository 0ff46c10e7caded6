package kernels

import (
	"fmt"
	"sort"

	"rtad/internal/ml"
)

// Cross-instance micro-batching. Backend.InferBatch fuses consecutive
// steps of ONE stream; serving wants the transpose as well — pending
// vectors from many sessions, judged together. GroupRunner is that compute
// core: it partitions a mixed batch of requests by trained model, gathers
// each member row's persistent state (LSTM h/c, the EWMA word) from its
// own device memory once, then advances all rows in lockstep — step t runs
// one weight-stationary Q16.16 matmul over every row that still has a t-th
// window — and scatters judgments and state back, leaving every member's
// device memory exactly as its own InferBatch would. A request may carry a
// whole trace chunk of windows, so one fused pass typically covers
// sessions×steps rows with the quantised parameters and matmul scratch hot
// in cache throughout.
//
// Only native backends join a group; GPU-sim backends fall back to their
// own InferBatch inside the same call, so the caller sees one uniform
// positional result slice. Cycle charges always come from each member's
// own calibrated cost — members of one group may run at different CU
// counts.

// BatchRequest is one session's pending work: its engine and the
// consecutive windows of its stream to judge, in order. The windows are
// only read for the duration of InferGroup.
type BatchRequest struct {
	Backend Backend
	Windows [][]int32
}

// GroupResult is the outcome for one request, positionally matched: one
// judgment and cycle charge per window, or the request's error. The slices
// alias the runner's arenas and are only valid until the next InferGroup.
type GroupResult struct {
	Js     []Judgment
	Cycles []int64
	Err    error
}

// GroupRunner fuses micro-batches across backend instances. Not safe for
// concurrent use: it reuses gather/scatter scratch across calls and is
// meant to be owned by a single coordinator.
//
// Rows in one call must come from distinct backend instances (each row's
// persistent state is gathered once before the pass); a serving
// coordinator gets this for free because a session blocks on one
// InferBatch at a time.
type GroupRunner struct {
	elmGroups  map[*ml.ELM][]int
	lstmGroups map[*ml.LSTM][]int
	// Shared parameter views per model, built over the first-seen member's
	// memory: every member of a group carries a bit-identical image (the
	// quantised build is deterministic from the trained model), so one view
	// — and its matmul scratch — serves the whole group.
	elmParams  map[*ml.ELM]*ml.ELMParamsQ
	lstmParams map[*ml.LSTM]*ml.LSTMParamsQ

	// Per-group scratch. in is step-major: the block for step t packs the
	// t-th windows of every row active at t, in row order; offs[t] is its
	// start. Rows are sorted by window count (descending, arrival-stable),
	// so the rows active at step t are always the prefix rows[:counts[t]].
	in      []uint32
	offs    []int
	counts  []int
	h, c    []int32
	ewma    []int32
	margins []int32
	rows    []int
	res     []GroupResult
	js      []Judgment
	cyc     []int64
}

// NewGroupRunner returns an empty runner; scratch grows to the largest
// batch it sees.
func NewGroupRunner() *GroupRunner {
	return &GroupRunner{
		elmGroups:  map[*ml.ELM][]int{},
		lstmGroups: map[*ml.LSTM][]int{},
		elmParams:  map[*ml.ELM]*ml.ELMParamsQ{},
		lstmParams: map[*ml.LSTM]*ml.LSTMParamsQ{},
	}
}

// InferGroup judges every request and returns positional results. Each
// session's judgments, cycle charges and post-state are bit-identical to
// what its own InferBatch would have produced; only host wall-time
// differs. The returned slice and the slices inside it are the runner's
// arenas — valid until the next call.
func (g *GroupRunner) InferGroup(reqs []BatchRequest) []GroupResult {
	res := growRes(g.res, len(reqs))
	g.res = res
	for i := range res {
		res[i] = GroupResult{}
	}
	for m := range g.elmGroups {
		delete(g.elmGroups, m)
	}
	for m := range g.lstmGroups {
		delete(g.lstmGroups, m)
	}
	rows := 0
	for _, r := range reqs {
		rows += len(r.Windows)
	}
	g.js = growJ(g.js, rows)
	g.cyc = growI64(g.cyc, rows)
	used := 0
	for i, r := range reqs {
		if len(r.Windows) == 0 {
			continue
		}
		nb, ok := r.Backend.(*nativeBackend)
		if !ok {
			res[i].Js, res[i].Cycles, res[i].Err = r.Backend.InferBatch(r.Windows)
			continue
		}
		if nb.elm != nil {
			g.elmGroups[nb.elm.model] = append(g.elmGroups[nb.elm.model], i)
		} else {
			g.lstmGroups[nb.lstm.model] = append(g.lstmGroups[nb.lstm.model], i)
		}
	}
	for model, idx := range g.elmGroups {
		used = g.runGroup(nil, model, idx, reqs, res, used)
	}
	for model, idx := range g.lstmGroups {
		used = g.runGroup(model, nil, idx, reqs, res, used)
	}
	return res
}

// planGroup orders the group's requests for lockstep stepping and packs
// their windows. Rows are sorted by window count descending (stable in
// arrival order), so at every step the active rows are a prefix; the
// quantised windows land in the step-major arena. Requests that fail
// validation get their error result here and are excluded from the pass
// with their device state untouched.
func (g *GroupRunner) planGroup(win int, idx []int, reqs []BatchRequest, res []GroupResult) (maxK int) {
	g.rows = append(g.rows[:0], idx...)
	sort.SliceStable(g.rows, func(a, b int) bool {
		return len(reqs[g.rows[a]].Windows) > len(reqs[g.rows[b]].Windows)
	})
	// Drop invalid requests first so the survivors pack densely.
	valid := g.rows[:0]
	for _, i := range g.rows {
		nb := reqs[i].Backend.(*nativeBackend)
		bad := false
		for t, w := range reqs[i].Windows {
			if err := nb.quantInto(nb.inBuf, w); err != nil {
				res[i].Err = batchWindowErr(t, err)
				bad = true
				break
			}
		}
		if !bad {
			valid = append(valid, i)
		}
	}
	g.rows = valid
	if len(g.rows) == 0 {
		return 0
	}
	maxK = len(reqs[g.rows[0]].Windows)
	g.offs = growInt(g.offs, maxK)
	g.counts = growInt(g.counts, maxK)
	total := 0
	for t := 0; t < maxK; t++ {
		na := 0
		for _, i := range g.rows {
			if len(reqs[i].Windows) > t {
				na++
			}
		}
		g.offs[t] = total
		g.counts[t] = na
		total += na * win
	}
	g.in = growU32(g.in, total)
	for t := 0; t < maxK; t++ {
		block := g.in[g.offs[t]:]
		for bi, i := range g.rows[:g.counts[t]] {
			nb := reqs[i].Backend.(*nativeBackend)
			// Validation already passed; quantInto only converts here.
			_ = nb.quantInto(block[bi*win:(bi+1)*win], reqs[i].Windows[t])
		}
	}
	return maxK
}

// runGroup advances one model's rows in lockstep. Exactly one of lstm/elm
// is non-nil; used indexes the shared judgment/cycle arenas and the new
// high-water mark is returned.
func (g *GroupRunner) runGroup(lstm *ml.LSTM, elm *ml.ELM, idx []int, reqs []BatchRequest, res []GroupResult, used int) int {
	win := ELMWindow
	if lstm != nil {
		win = LSTMWindow
	}
	maxK := g.planGroup(win, idx, reqs, res)
	if maxK == 0 {
		return used
	}
	n := len(g.rows)
	var (
		lp *ml.LSTMParamsQ
		ep *ml.ELMParamsQ
	)
	if lstm != nil {
		if lp = g.lstmParams[lstm]; lp == nil {
			lp = LSTMParamsView(reqs[g.rows[0]].Backend.(*nativeBackend).mem)
			g.lstmParams[lstm] = lp
		}
		g.h = growI32(g.h, n*LSTMHidden)
		g.c = growI32(g.c, n*LSTMHidden)
	} else {
		if ep = g.elmParams[elm]; ep == nil {
			ep = ELMParamsView(reqs[g.rows[0]].Backend.(*nativeBackend).mem)
			g.elmParams[elm] = ep
		}
	}
	g.margins = growI32(g.margins, n)
	g.ewma = growI32(g.ewma, n)

	// Gather persistent state once; it stays packed across all steps.
	for bi, i := range g.rows {
		mem := reqs[i].Backend.(*nativeBackend).mem
		if lstm != nil {
			for r := 0; r < LSTMHidden; r++ {
				g.h[bi*LSTMHidden+r] = int32(mem[LSTMH+r])
				g.c[bi*LSTMHidden+r] = int32(mem[LSTMC+r])
			}
			g.ewma[bi] = int32(mem[LSTMEwma])
		} else {
			g.ewma[bi] = int32(mem[ELMEwma])
		}
		res[i].Js = g.js[used : used : used+len(reqs[i].Windows)]
		res[i].Cycles = g.cyc[used : used : used+len(reqs[i].Windows)]
		used += len(reqs[i].Windows)
	}

	for t := 0; t < maxK; t++ {
		na := g.counts[t]
		in := g.in[g.offs[t]:]
		if lstm != nil {
			lp.StepBatchQ(g.h, g.c, in, na, g.margins)
		} else {
			ep.MarginBatchQ(in, na, g.margins)
		}
		for bi, i := range g.rows[:na] {
			nb := reqs[i].Backend.(*nativeBackend)
			ewma := ml.EwmaStepQ(g.ewma[bi], g.margins[bi], nb.alphaQ)
			g.ewma[bi] = ewma
			j := Judgment{Anomaly: ewma > nb.thrQ, MarginQ: g.margins[bi], EwmaQ: ewma}
			res[i].Js = append(res[i].Js, j)
			res[i].Cycles = append(res[i].Cycles, nb.cycles)
		}
	}

	// Scatter state back: each member's device memory ends exactly as its
	// own InferBatch would leave it — final input window, final recurrent
	// state, EWMA word, and the last judgment in the out registers.
	for bi, i := range g.rows {
		nb := reqs[i].Backend.(*nativeBackend)
		mem := nb.mem
		k := len(reqs[i].Windows)
		last := g.in[g.offs[k-1]:]
		if lstm != nil {
			copy(mem[LSTMIn:LSTMIn+LSTMWindow], last[bi*LSTMWindow:(bi+1)*LSTMWindow])
			for r := 0; r < LSTMHidden; r++ {
				mem[LSTMH+r] = uint32(g.h[bi*LSTMHidden+r])
				mem[LSTMC+r] = uint32(g.c[bi*LSTMHidden+r])
			}
			mem[LSTMEwma] = uint32(g.ewma[bi])
			writeOut(mem[LSTMOut:], res[i].Js[k-1])
		} else {
			copy(mem[ELMIn:ELMIn+ELMWindow], last[bi*ELMWindow:(bi+1)*ELMWindow])
			mem[ELMEwma] = uint32(g.ewma[bi])
			writeOut(mem[ELMOut:], res[i].Js[k-1])
		}
	}
	return used
}

func batchWindowErr(t int, err error) error {
	return fmt.Errorf("kernels: batch window %d: %w", t, err)
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growJ(s []Judgment, n int) []Judgment {
	if cap(s) < n {
		return make([]Judgment, n)
	}
	return s[:n]
}

func growRes(s []GroupResult, n int) []GroupResult {
	if cap(s) < n {
		return make([]GroupResult, n)
	}
	return s[:n]
}
