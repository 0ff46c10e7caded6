package kernels

import "rtad/internal/ml"

// Cross-instance micro-batching. Backend.InferBatch judges consecutive
// steps of ONE stream; serving wants the transpose as well — pending
// vectors from many sessions, judged together. GroupRunner is that compute
// core: it partitions a mixed batch of requests by trained model and runs
// each model's requests through the one single-row kernel of that model
// (ml.StepQ / ml.MarginQ), all on one parameter view. A request may carry a
// whole trace chunk of windows, so one pass typically covers
// sessions×steps rows with one copy of the quantised weights and the
// kernel's scratch hot in cache throughout, where each session's own
// engine would stream its own copy of the image. Every member's judgments
// and device memory end exactly as its own InferBatch would leave them.
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
// concurrent use: it reuses scratch across calls and is meant to be owned
// by a single coordinator. It keeps no reference to any backend or model
// between calls, so a model version the server has retired is collected
// once its sessions end.
//
// Requests in one call must come from distinct backend instances whose
// sessions are parked for the whole call: a group runs on its first
// member's parameter view and scratch. A serving coordinator gets both for
// free because a session blocks on one InferBatch at a time.
type GroupRunner struct {
	elmGroups  map[*ml.ELM][]int
	lstmGroups map[*ml.LSTM][]int

	in  []uint32 // one request's quantised windows
	res []GroupResult
	js  []Judgment
	cyc []int64
}

// NewGroupRunner returns an empty runner; scratch grows to the largest
// batch it sees.
func NewGroupRunner() *GroupRunner {
	return &GroupRunner{
		elmGroups:  map[*ml.ELM][]int{},
		lstmGroups: map[*ml.LSTM][]int{},
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
	rows := 0
	for _, r := range reqs {
		rows += len(r.Windows)
	}
	g.js = growJ(g.js, rows)
	g.cyc = growI64(g.cyc, rows)
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
	used := 0
	for model, idx := range g.elmGroups {
		used = g.runGroup(idx, reqs, res, used)
		delete(g.elmGroups, model)
	}
	for model, idx := range g.lstmGroups {
		used = g.runGroup(idx, reqs, res, used)
		delete(g.lstmGroups, model)
	}
	return res
}

// runGroup judges one model's requests on the first member's parameter
// view: every member carries a bit-identical image (the quantised build is
// deterministic from the trained model), and that member's session is
// parked on this pass, so its view and scratch are free to use. A
// request's windows are all validated before any of them runs, so a bad
// window fails only its own request and leaves that member's device state
// untouched. used indexes the shared judgment/cycle arenas; the new
// high-water mark is returned.
func (g *GroupRunner) runGroup(idx []int, reqs []BatchRequest, res []GroupResult, used int) int {
	view := reqs[idx[0]].Backend.(*nativeBackend)
	for _, i := range idx {
		nb := reqs[i].Backend.(*nativeBackend)
		windows := reqs[i].Windows
		g.in = growU32(g.in, len(windows)*nb.win)
		if err := nb.quantBatch(g.in, windows); err != nil {
			res[i].Err = err
			continue
		}
		js := g.js[used : used+len(windows)]
		cyc := g.cyc[used : used+len(windows)]
		used += len(windows)
		for t := range windows {
			js[t] = nb.step(view, g.in[t*nb.win:(t+1)*nb.win])
			cyc[t] = nb.cycles
		}
		res[i].Js, res[i].Cycles = js, cyc
	}
	return used
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
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
