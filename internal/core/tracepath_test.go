package core

import (
	"fmt"
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/sim"
)

// Shared fixtures for the trace-path differential suite: training is the
// expensive part, so it uses the package's memoized deployments, and one
// calibration table is reused by every grid cell and fuzz iteration.
var tpCalib = kernels.NewCalibration()

func tracePathFixtures(t testing.TB) (elm, lstm *Deployment, calib *kernels.Calibration) {
	t.Helper()
	return trainELMDeployment(t, "400.perlbench"), trainLSTMDeployment(t, "458.sjeng"), tpCalib
}

// runTracePathDiff replays one synthesized branch/flush op stream through
// a counted-chain pipeline and a reference pipeline in lockstep and fails
// on any observable divergence: per-event backpressure stalls, the
// full judged stream (vector timestamps, windows, MCM records, retirement
// anchors), stage statistics, and end-of-run stage snapshots. It returns
// the CPU cycles the stream stalled for.
//
// Each op byte encodes one action from the event vocabulary the encoder
// distinguishes: mapped/unmapped direct branches (address packets under
// branch-broadcast), not-taken waypoints (atoms), syscalls (exception
// packets), odd-bit targets (the wire drops address bit 0), and pipeline
// flushes; the top bits add 0–7 cycles to the inter-event gap, which is at
// least gap cycles.
func runTracePathDiff(t *testing.T, dep *Deployment, calib *kernels.Calibration, stride, threshold int, gap int64, ops []byte) int64 {
	t.Helper()
	build := func(ref bool) *Pipeline {
		p, err := newPipeline(dep, PipelineConfig{
			CUs: 5, Stride: stride, DrainThreshold: threshold,
			Backend: kernels.BackendNativeCalibrated, Calibration: calib,
			StagedTrace: ref,
		}, wiring{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rp, fp := build(true), build(false)
	addrs := dep.Mapper.Entries()
	var cycle, stalls int64
	for i, b := range ops {
		cycle += gap + int64(b>>5)
		op := b & 7
		var ev cpu.BranchEvent
		switch {
		case op == 6:
			at := sim.CPUClock.Duration(cycle)
			rp.Flush(at)
			fp.Flush(at)
			continue
		case op == 7 && len(addrs) > 0:
			ev = cpu.BranchEvent{PC: 0x8000, Target: addrs[int(b>>3)%len(addrs)].Addr | 1,
				Kind: cpu.KindIndirect, Taken: true, Cycle: cycle}
		case op == 5:
			ev = cpu.BranchEvent{PC: 0x8000, Target: cpu.SyscallTarget(int32(b>>3) & 15),
				Kind: cpu.KindSyscall, Taken: true, Cycle: cycle}
		case op == 4:
			ev = cpu.BranchEvent{PC: 0x8000, Target: 0x9000, Kind: cpu.KindDirect, Cycle: cycle}
		case op == 3 || len(addrs) == 0:
			ev = cpu.BranchEvent{PC: 0x8000, Target: 0xDEAD0000 | uint32(b)<<4,
				Kind: cpu.KindDirect, Taken: true, Cycle: cycle}
		default:
			ev = cpu.BranchEvent{PC: 0x8000, Target: addrs[int(b>>3)%len(addrs)].Addr,
				Kind: cpu.KindDirect, Taken: true, Cycle: cycle}
		}
		s1 := rp.BranchRetired(ev)
		s2 := fp.BranchRetired(ev)
		if s1 != s2 {
			t.Fatalf("op %d: backpressure stall diverged: reference=%d counted=%d", i, s1, s2)
		}
		cycle += s1
		stalls += s1
	}
	at := sim.CPUClock.Duration(cycle + 64)
	rp.Flush(at)
	fp.Flush(at)
	comparePipelines(t, rp, fp)
	return stalls
}

// comparePipelines asserts full observable equality between the reference
// and the counted chain.
func comparePipelines(t *testing.T, rp, fp *Pipeline) {
	t.Helper()
	rj, fj := rp.TakeJudged(nil), fp.TakeJudged(nil)
	if (rp.Err() == nil) != (fp.Err() == nil) {
		t.Fatalf("error divergence: reference=%v counted=%v", rp.Err(), fp.Err())
	}
	if len(rj) != len(fj) {
		t.Fatalf("judged count diverged: reference=%d counted=%d", len(rj), len(fj))
	}
	for i := range rj {
		a, b := rj[i], fj[i]
		if a.Rec != b.Rec {
			t.Fatalf("judged[%d] record diverged:\nreference %+v\ncounted   %+v", i, a.Rec, b.Rec)
		}
		if a.FinalRetire != b.FinalRetire {
			t.Fatalf("judged[%d] FinalRetire diverged: reference=%d counted=%d", i, a.FinalRetire, b.FinalRetire)
		}
		av, bv := a.Vector, b.Vector
		if av.At != bv.At || av.Seq != bv.Seq || av.AcceptedIdx != bv.AcceptedIdx || av.Addr != bv.Addr {
			t.Fatalf("judged[%d] vector diverged:\nreference %+v\ncounted   %+v", i, av, bv)
		}
		if len(av.Classes) != len(bv.Classes) {
			t.Fatalf("judged[%d] window length diverged: %d vs %d", i, len(av.Classes), len(bv.Classes))
		}
		for k := range av.Classes {
			if av.Classes[k] != bv.Classes[k] {
				t.Fatalf("judged[%d] window[%d] diverged: %d vs %d", i, k, av.Classes[k], bv.Classes[k])
			}
		}
	}
	if s, f := rp.ig.Stats(), fp.ig.Stats(); s != f {
		t.Fatalf("IGM stats diverged:\nreference %+v\ncounted   %+v", s, f)
	}
	if s, f := rp.MCMStats(), fp.MCMStats(); s != f {
		t.Fatalf("MCM stats diverged:\nreference %+v\ncounted   %+v", s, f)
	}
	ss, fs := SnapshotStages(rp.Stages()), SnapshotStages(fp.Stages())
	for i := range ss {
		if ss[i] != fs[i] {
			t.Fatalf("stage %q snapshot diverged:\nreference %+v\ncounted   %+v", ss[i].Name, ss[i], fs[i])
		}
	}
}

// TestTracePathEquivalenceGrid is the deterministic flush-order/chunk-shape
// property check: for both deployments, every DrainThreshold in {1, 64,
// 256}, and both sparse and dense strides, a fixed pseudo-random op stream
// (including mid-stream flushes, filtered targets, atoms, syscalls, and
// odd-bit addresses) must drive the counted chain to output bit-identical
// to the reference's. The flood cells retire a branch every cycle, which
// outruns the port, so they must stall the CPU and pin the backpressure
// horizon.
func TestTracePathEquivalenceGrid(t *testing.T) {
	elm, lstm, calib := tracePathFixtures(t)
	ops := make([]byte, 6000)
	flood := make([]byte, len(ops))
	x := uint32(0x2545F491)
	for i := range ops {
		// xorshift: deterministic, full byte coverage.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		ops[i] = byte(x)
		flood[i] = byte(x) & 0x1F // no added gap
	}
	for _, tc := range []struct {
		name   string
		dep    *Deployment
		stride int
		gap    int64
		ops    []byte
	}{
		{"elm-stride1", elm, 1, 3, ops},
		{"lstm-stride7", lstm, 7, 3, ops},
		{"lstm-stride256", lstm, 256, 3, ops},
		{"elm-flood", elm, 1, 1, flood},
		{"lstm-flood", lstm, 7, 1, flood},
	} {
		for _, threshold := range []int{1, 64, 256} {
			tc, threshold := tc, threshold
			t.Run(fmt.Sprintf("%s-thresh%d", tc.name, threshold), func(t *testing.T) {
				stalls := runTracePathDiff(t, tc.dep, calib, tc.stride, threshold, tc.gap, tc.ops)
				if tc.gap == 1 && stalls == 0 {
					t.Fatal("the flood never stalled the CPU: the backpressure horizon went unchecked")
				}
			})
		}
	}
}

// FuzzTracePathDifferential fuzzes the reference-vs-counted equivalence over
// random op streams and configuration draws. The committed corpus under
// testdata/fuzz covers the structural edge cases (threshold-1 ports, frame
// boundaries straddling packets, flush storms, odd addresses); `go test`
// replays it on every CI run.
func FuzzTracePathDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 9, 17, 33, 4, 6, 2})
	f.Add([]byte{1, 1, 1, 255, 254, 253, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 2, 5, 13, 21, 29, 37, 45, 53, 61, 69, 77, 85, 93, 101})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		elm, lstm, calib := tracePathFixtures(t)
		dep := lstm
		if data[0]&1 == 0 {
			dep = elm
		}
		strides := [...]int{1, 7, 256, 3840}
		thresholds := [...]int{1, 64, 256}
		stride := strides[int(data[1])%len(strides)]
		threshold := thresholds[int(data[2])%len(thresholds)]
		ops := data[3:]
		if len(ops) > 1<<16 {
			ops = ops[:1<<16]
		}
		runTracePathDiff(t, dep, calib, stride, threshold, 3, ops)
	})
}

// TestAcceptedRetireBounded is the long-run pruning check: a pipeline that
// streams accepted branches forever must not grow the retirement-anchor
// slice without bound (it previously kept one entry per accepted branch for
// the life of the pipeline). The reference must agree with the counted
// chain entry for entry, and the golden digests pin FinalRetire across
// commits.
func TestAcceptedRetireBounded(t *testing.T) {
	elm, _, calib := tracePathFixtures(t)
	build := func(ref bool) *Pipeline {
		p, err := newPipeline(elm, PipelineConfig{
			CUs: 5, Backend: kernels.BackendNativeCalibrated, Calibration: calib,
			StagedTrace: ref,
		}, wiring{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rp, fp := build(true), build(false)
	const branches = 300_000
	var cycle int64
	for i := 0; i < branches; i++ {
		cycle += 40
		ev := cpu.BranchEvent{PC: 0x8000, Target: cpu.SyscallTarget(int32(i) & 15),
			Kind: cpu.KindSyscall, Taken: true, Cycle: cycle}
		cycle += rp.BranchRetired(ev)
		fp.BranchRetired(ev)
	}
	at := sim.CPUClock.Duration(cycle + 64)
	rp.Flush(at)
	fp.Flush(at)
	if fp.ig.Stats().Accepted < branches/2 {
		t.Fatalf("only %d accepted branches — the path under test did not run", fp.ig.Stats().Accepted)
	}
	// The pruned ring must stay small relative to the accepted stream: the
	// live window is the stride gap plus compaction slack, far below the
	// 300k entries the unbounded slice would hold.
	if got := len(fp.acceptedRetire); got > 16384 {
		t.Fatalf("acceptedRetire holds %d entries after %d branches — pruning is not engaging", got, branches)
	}
	if fp.retireBase == 0 {
		t.Fatal("retireBase never advanced — pruning is not engaging")
	}
	comparePipelines(t, rp, fp)
}
