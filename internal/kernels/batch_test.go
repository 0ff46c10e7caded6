package kernels

import (
	"testing"

	"rtad/internal/gpu"
	"rtad/internal/ml"
)

// backendNames lists every backend NewBackend builds.
var backendNames = []string{BackendGPU, BackendNativeCalibrated}

// specFor builds a fresh single-model spec over its own device.
func specFor(t testing.TB, elm *ml.ELM, lstm *ml.LSTM) Spec {
	t.Helper()
	s := Spec{ELM: elm, LSTM: lstm}
	if elm != nil {
		s.Dev = gpu.NewDevice(ELMMemEnd, 1)
	} else {
		s.Dev = gpu.NewDevice(LSTMMemEnd, 1)
	}
	return s
}

// TestInferBatchMatchesInfer pins the Backend contract: InferBatch over a
// stream equals the same stream fed through Infer one window at a time —
// judgments, cycle charges and subsequent state — for every backend and
// both models.
func TestInferBatchMatchesInfer(t *testing.T) {
	elm := trainELM(t)
	lstm := trainLSTM(t)
	for _, tc := range []struct {
		model   string
		windows [][]int32
		mk      func() Spec
	}{
		{"elm", markovWindows(ELMVocab, ELMWindow, 60, 21), func() Spec { return specFor(t, elm, nil) }},
		{"lstm", markovWindows(LSTMVocab, LSTMWindow, 60, 23), func() Spec { return specFor(t, nil, lstm) }},
	} {
		for _, name := range backendNames {
			seqB, err := NewBackend(name, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			batB, err := NewBackend(name, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			// Interleave batch sizes, including 1, so chunk boundaries are
			// shown not to matter.
			for start, sizes := 0, []int{1, 7, 3, 16, 33}; start < len(tc.windows); {
				n := sizes[0]
				sizes = append(sizes[1:], n)
				if start+n > len(tc.windows) {
					n = len(tc.windows) - start
				}
				chunk := tc.windows[start : start+n]
				js, cycles, err := batB.InferBatch(chunk)
				if err != nil {
					t.Fatalf("%s/%s: InferBatch: %v", tc.model, name, err)
				}
				if len(js) != n || len(cycles) != n {
					t.Fatalf("%s/%s: InferBatch returned %d/%d results for %d windows",
						tc.model, name, len(js), len(cycles), n)
				}
				for i := 0; i < n; i++ {
					wj, wc, err := seqB.Infer(chunk[i])
					if err != nil {
						t.Fatalf("%s/%s: Infer: %v", tc.model, name, err)
					}
					if js[i] != wj || cycles[i] != wc {
						t.Fatalf("%s/%s window %d: batched (%+v, %d) != sequential (%+v, %d)",
							tc.model, name, start+i, js[i], cycles[i], wj, wc)
					}
				}
				start += n
			}
		}
	}
}

// TestInferBatchRejectsBadWindow pins the error path: an invalid window
// fails the whole batch for every backend.
func TestInferBatchRejectsBadWindow(t *testing.T) {
	elm := trainELM(t)
	for _, name := range backendNames {
		b, err := NewBackend(name, specFor(t, elm, nil))
		if err != nil {
			t.Fatal(err)
		}
		good := markovWindows(ELMVocab, ELMWindow, 1, 3)[0]
		bad := append([]int32(nil), good...)
		bad[0] = ELMVocab + 5
		if _, _, err := b.InferBatch([][]int32{good, bad}); err == nil {
			t.Fatalf("%s: InferBatch accepted an out-of-vocab class", name)
		}
	}
}

// TestInferGroupMatchesPerSession drives a mixed fleet — both models,
// every backend, several instances each — through the GroupRunner and
// checks every session's stream against a mirror instance advanced by
// plain Infer. Requests carry variable-length window chunks, so members of
// one fused pass drop out at different steps (the active-prefix path).
// This is the serving coordinator's correctness contract: grouping across
// sessions must not perturb any one session's stream.
func TestInferGroupMatchesPerSession(t *testing.T) {
	elm := trainELM(t)
	lstm := trainLSTM(t)
	type session struct {
		live, mirror Backend
		windows      [][]int32
		next         int // stream cursor
	}
	var sessions []*session
	seed := int64(100)
	for _, name := range backendNames {
		for i := 0; i < 3; i++ {
			live, err := NewBackend(name, specFor(t, elm, nil))
			if err != nil {
				t.Fatal(err)
			}
			mirror, err := NewBackend(name, specFor(t, elm, nil))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, &session{live: live, mirror: mirror,
				windows: markovWindows(ELMVocab, ELMWindow, 60, seed)})
			seed++
			live, err = NewBackend(name, specFor(t, nil, lstm))
			if err != nil {
				t.Fatal(err)
			}
			mirror, err = NewBackend(name, specFor(t, nil, lstm))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, &session{live: live, mirror: mirror,
				windows: markovWindows(LSTMVocab, LSTMWindow, 60, seed)})
			seed++
		}
	}
	runner := NewGroupRunner()
	for round := 0; round < 12; round++ {
		// Stagger membership and chunk length so batch composition — and
		// each member's step count within a pass — varies between rounds.
		var reqs []BatchRequest
		var members []*session
		for si, s := range sessions {
			if round%(si%3+1) != 0 {
				continue
			}
			n := 1 + (si+round)%4
			if left := len(s.windows) - s.next; n > left {
				n = left
			}
			if n == 0 {
				continue
			}
			reqs = append(reqs, BatchRequest{Backend: s.live, Windows: s.windows[s.next : s.next+n]})
			members = append(members, s)
		}
		res := runner.InferGroup(reqs)
		if len(res) != len(reqs) {
			t.Fatalf("round %d: %d results for %d requests", round, len(res), len(reqs))
		}
		for ri, s := range members {
			r := res[ri]
			if r.Err != nil {
				t.Fatalf("round %d (%s): group err %v", round, s.live.Name(), r.Err)
			}
			n := len(reqs[ri].Windows)
			if len(r.Js) != n || len(r.Cycles) != n {
				t.Fatalf("round %d (%s): %d/%d results for %d windows",
					round, s.live.Name(), len(r.Js), len(r.Cycles), n)
			}
			for k := 0; k < n; k++ {
				wj, wc, werr := s.mirror.Infer(s.windows[s.next+k])
				if werr != nil {
					t.Fatal(werr)
				}
				if r.Js[k] != wj || r.Cycles[k] != wc {
					t.Fatalf("round %d (%s) step %d: group (%+v, %d) != sequential (%+v, %d)",
						round, s.live.Name(), k, r.Js[k], r.Cycles[k], wj, wc)
				}
			}
			s.next += n
		}
	}
}

// TestInferGroupBadRowIsolated pins that one session's invalid window
// fails only that row; the rest of the group still judges.
func TestInferGroupBadRowIsolated(t *testing.T) {
	elm := trainELM(t)
	mk := func() Backend {
		b, err := NewBackend(BackendNativeCalibrated, specFor(t, elm, nil))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, mirror := mk(), mk(), mk()
	good := markovWindows(ELMVocab, ELMWindow, 3, 5)
	bad := append([]int32(nil), good[1]...)
	bad[2] = -1
	runner := NewGroupRunner()
	res := runner.InferGroup([]BatchRequest{
		{Backend: a, Windows: [][]int32{good[0], good[2]}},
		{Backend: b, Windows: [][]int32{good[1], bad}},
	})
	if res[1].Err == nil {
		t.Fatal("invalid row did not error")
	}
	if res[0].Err != nil {
		t.Fatalf("good row errored: %v", res[0].Err)
	}
	for k, w := range [][]int32{good[0], good[2]} {
		wj, wc, err := mirror.Infer(w)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Js[k] != wj || res[0].Cycles[k] != wc {
			t.Fatalf("good row step %d: (%+v, %d) != sequential (%+v, %d)",
				k, res[0].Js[k], res[0].Cycles[k], wj, wc)
		}
	}
}

// Benchmarks: one fused group pass over n same-model native sessions, each
// carrying a k-step chunk, against the n×k inline Infer calls the unbatched
// server would make. This is the engine-side half of the serving trade —
// coordination cost lives in internal/serve and is not measured here.
func benchNativeFleet(b *testing.B, n, k int) ([]Backend, []BatchRequest) {
	b.Helper()
	lstm := trainLSTM(b)
	backends := make([]Backend, n)
	reqs := make([]BatchRequest, n)
	for i := range backends {
		wins := markovWindows(LSTMVocab, LSTMWindow, k, 31+int64(i))
		be, err := NewBackend(BackendNativeCalibrated, specFor(b, nil, lstm))
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = be
		reqs[i] = BatchRequest{Backend: be, Windows: wins}
	}
	return backends, reqs
}

func benchSeq(b *testing.B, n, k int) {
	backends, reqs := benchNativeFleet(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s, be := range backends {
			for _, w := range reqs[s].Windows {
				if _, _, err := be.Infer(w); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func benchGroup(b *testing.B, n, k int) {
	_, reqs := benchNativeFleet(b, n, k)
	g := NewGroupRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range g.InferGroup(reqs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkNativeLSTMInferSeq32(b *testing.B)      { benchSeq(b, 32, 1) }
func BenchmarkNativeLSTMInferGroup32(b *testing.B)    { benchGroup(b, 32, 1) }
func BenchmarkNativeLSTMInferSeq32x16(b *testing.B)   { benchSeq(b, 32, 16) }
func BenchmarkNativeLSTMInferGroup32x16(b *testing.B) { benchGroup(b, 32, 16) }
