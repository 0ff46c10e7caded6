package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/workload"
)

// liveSlice is the Step size of the live digests, perfbench's detect-fig8
// chunk.
const liveSlice = 250_000

// digestWriter writes int64s into a SHA-256, little-endian.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) put(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// putJudged writes a judgment's Seq, Done, FinalRetire, MarginQ, EwmaQ,
// Anomaly and IRQAt.
func (d *digestWriter) putJudged(j *Judged) {
	d.put(j.Vector.Seq, int64(j.Rec.Done), int64(j.FinalRetire),
		int64(j.Rec.Judgment.MarginQ), int64(j.Rec.Judgment.EwmaQ),
		b2i(j.Rec.Judgment.Anomaly), int64(j.Rec.IRQAt))
}

// liveDigest runs a live session to instr retired instructions in
// liveSlice Steps, arming arm by Inject before the first Step that starts
// at or after armAt instructions (armAt 0 arms it at Open), drains it, and
// returns a SHA-256 over, for each lane in turn, every judgment it
// delivered (the lane index, then putJudged); then each lane's Summary
// (Kind, CUs, InjectTime, First's Seq and Done, Latency, MeanLatency,
// IRQTime, Detected, Judged, Dropped, MaxOcc) and stage snapshots (Len,
// MaxDepth, Overflows, Accepted, Dropped); then Instret and Cycles.
func liveDigest(t *testing.T, deps Deployments, cfg PipelineConfig, arm AttackSpec, armAt, instr int64) string {
	t.Helper()
	opts := []Option{WithConfig(cfg)}
	if armAt == 0 {
		opts = append(opts, WithAttack(arm))
	}
	s, err := Open(deps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]Judged, len(s.lanes))
	collect := func() {
		for i := range streams {
			streams[i] = append(streams[i], s.LaneResults(i)...)
		}
	}
	for done := int64(0); done < instr; {
		if armAt > 0 && done >= armAt {
			if err := s.Inject(arm); err != nil {
				t.Fatal(err)
			}
			armAt = 0
		}
		k := min(liveSlice, instr-done)
		n, err := s.Step(k)
		if err != nil {
			t.Fatal(err)
		}
		done += n
		collect()
		if n < k { // the victim halted
			break
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	collect()

	d := digestWriter{h: sha256.New()}
	for i, js := range streams {
		for k := range js {
			d.put(int64(i))
			d.putJudged(&js[k])
		}
	}
	for i := range streams {
		res, err := s.LaneSummary(i)
		if err != nil {
			t.Fatal(err)
		}
		d.put(int64(res.Kind), int64(res.CUs), int64(res.InjectTime),
			res.First.Vector.Seq, int64(res.First.Rec.Done),
			int64(res.Latency), int64(res.MeanLatency), int64(res.IRQTime),
			b2i(res.Detected), int64(res.Judged), res.Dropped, int64(res.MaxOcc))
		for _, st := range res.Stages {
			d.put(int64(st.Len), int64(st.MaxDepth), st.Overflows, st.Accepted, st.Dropped)
		}
		t.Logf("lane %d (%s): %d judgments, %d dropped, latency %v", i, res.Kind, len(streams[i]), res.Dropped, res.Latency)
	}
	d.put(s.Instret(), s.frontCycles())
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestLiveGoldenDigest pins what live-CPU sessions make of the paper's
// detection runs to committed digests, so a change to the victim CPU, the
// sink chain, the injector, the dual fan-out or anything behind them shows
// here even when it moves every path of one commit alike.
//
// Every row runs native-calibrated, sharing one calibration table, at the
// default stride and FIFO unless it says otherwise, on the memoized
// trainELMDeployment and trainLSTMDeployment, stepped in 250k-instruction
// slices (see liveDigest):
//   - the Fig 8 grid of perfbench's detect-fig8: the ELM on 400.perlbench
//     with a 4096-event burst and the LSTM on 458.sjeng with the classic
//     burst, at 1 and 5 CUs, 4M instructions, attack armed at Open;
//   - TestSessionMidRunInject's shape: the LSTM on 458.sjeng at 5 CUs and
//     stride 512, armed after 500k instructions with trigger 1000, run to
//     1.5M;
//   - TestDualSessionStepEquivalence's dual ELM+LSTM session on
//     400.perlbench at 5 CUs, at 3M instructions.
func TestLiveGoldenDigest(t *testing.T) {
	elm := trainELMDeployment(t, "400.perlbench")
	lstm := trainLSTMDeployment(t, "458.sjeng")
	calib := kernels.NewCalibration()
	const instr = 4_000_000
	rows := []struct {
		name   string
		deps   Deployments
		cfg    PipelineConfig
		arm    AttackSpec
		armAt  int64
		instr  int64
		digest string
	}{
		{"elm-perlbench-1cu", Deployments{elm}, PipelineConfig{CUs: 1},
			AttackSpec{BurstLen: 4096, Seed: 11}.Resolve(instr), 0, instr,
			"8dba4907721ee842781fc4a3171a7c2d0c40410aba9c20caa79ad80356be1e48"},
		{"elm-perlbench-5cu", Deployments{elm}, PipelineConfig{CUs: 5},
			AttackSpec{BurstLen: 4096, Seed: 11}.Resolve(instr), 0, instr,
			"d1b25d50fbf1fe49726175cabcce70e2a89c3691c5bc17624de5e3f2bdfc5be7"},
		{"lstm-sjeng-1cu", Deployments{lstm}, PipelineConfig{CUs: 1},
			AttackSpec{Seed: 12}.Resolve(instr), 0, instr,
			"3328d22dc9c3e339c12ab27bf67c91487cc9b94a8bab50ecc9b2c2efc5d5cbe1"},
		{"lstm-sjeng-5cu", Deployments{lstm}, PipelineConfig{CUs: 5},
			AttackSpec{Seed: 12}.Resolve(instr), 0, instr,
			"5e30da6ea0ed29acfe0a6e07e8cd885f90dee5ceeacf70bb29856751352c01b4"},
		{"lstm-sjeng-midrun-inject", Deployments{lstm}, PipelineConfig{CUs: 5, Stride: 512},
			AttackSpec{TriggerBranch: 1000, BurstLen: 32768, Seed: 9}, 500_000, 1_500_000,
			"8bc129dc342de930d008bac67602539c42afa5af29f9e924278df57175723932"},
		{"dual-perlbench-5cu", Deployments{elm, trainLSTMDeployment(t, "400.perlbench")}, PipelineConfig{CUs: 5},
			AttackSpec{Seed: 5}.Resolve(3_000_000), 0, 3_000_000,
			"c60ab7329322bdb1c8a25b179bd8ec9861c8d7032a6961729490956fa3b66a90"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Backend, cfg.Calibration = kernels.BackendNativeCalibrated, calib
			got := liveDigest(t, row.deps, cfg, row.arm, row.armAt, row.instr)
			if got != row.digest {
				t.Errorf("digest changed:\n old %s\n new %s\nregenerate the row with: go test -run 'TestLiveGoldenDigest/%s' -v ./internal/core/",
					row.digest, got, row.name)
			}
		})
	}
}

// overheadDigest runs MeasureOverhead on bench for instr instructions under
// every cpu.Mode and returns a SHA-256 over each mode's Mode, Baseline,
// Cycles and the bits of Overhead.
func overheadDigest(t *testing.T, bench string, instr int64) string {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	d := digestWriter{h: sha256.New()}
	for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeRTAD, cpu.ModeSWSys, cpu.ModeSWFunc, cpu.ModeSWAll} {
		res, err := MeasureOverhead(p, mode, instr)
		if err != nil {
			t.Fatal(err)
		}
		d.put(int64(res.Mode), res.Baseline, res.Cycles, int64(math.Float64bits(res.Overhead)))
		t.Logf("%s: %d → %d cycles (%.4f%%)", mode, res.Baseline, res.Cycles, res.Overhead*100)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// transferDigest runs MeasureRTADTransfer on dep at cfg for instr
// instructions and returns a SHA-256 over the Read, Vectorize and Write
// averages and the number of vectors they average.
func transferDigest(t *testing.T, dep *Deployment, cfg PipelineConfig, instr int64) string {
	t.Helper()
	tb, n, err := MeasureRTADTransfer(dep, cfg, instr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d vectors: read %v, vectorize %v, write %v", n, tb.Read, tb.Vectorize, tb.Write)
	d := digestWriter{h: sha256.New()}
	d.put(int64(tb.Read), int64(tb.Vectorize), int64(tb.Write), int64(n))
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestFigureGoldenDigest pins the Fig 6 and Fig 7 measurements to
// committed digests, so a change to the victim CPU's collection modes, the
// PTM port's overhead sink, or the trace chain's clocks, port width and
// queue shows here even when it moves every path of one commit alike.
//
// Rows (see overheadDigest and transferDigest):
//   - fig6-gcc: MeasureOverhead on 403.gcc under every cpu.Mode at
//     cmd/experiments' default budget of 2M instructions;
//   - fig7-lstm-sjeng: MeasureRTADTransfer on the memoized
//     trainLSTMDeployment for 458.sjeng at cmd/experiments' Fig 7 stride of
//     64, and fig7-elm-perlbench on trainELMDeployment for 400.perlbench at
//     the ELM's default stride; both at 5 CUs, native-calibrated, 2M
//     instructions.
func TestFigureGoldenDigest(t *testing.T) {
	calib := kernels.NewCalibration()
	fig7 := func(dep *Deployment, stride int) func(t *testing.T) string {
		return func(t *testing.T) string {
			cfg := PipelineConfig{CUs: 5, Stride: stride, Backend: kernels.BackendNativeCalibrated, Calibration: calib}
			return transferDigest(t, dep, cfg, 2_000_000)
		}
	}
	rows := []struct {
		name   string
		run    func(t *testing.T) string
		digest string
	}{
		{"fig6-gcc", func(t *testing.T) string { return overheadDigest(t, "403.gcc", 2_000_000) },
			"1325c5db03182bbf912c4730affd80c09f6b6d0b3eaf0a96287191aff8a78400"},
		{"fig7-lstm-sjeng", fig7(trainLSTMDeployment(t, "458.sjeng"), 64),
			"62585cf0ede59168b9765776a249f425914df2f57098e8908ce7ffeb37289be9"},
		{"fig7-elm-perlbench", fig7(trainELMDeployment(t, "400.perlbench"), 0),
			"2c76b28c0cc7c5917bfb6e177bf8240871834294c3d58ee039eee11056cc83c1"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := row.run(t); got != row.digest {
				t.Errorf("digest changed:\n old %s\n new %s\nregenerate the row with: go test -run 'TestFigureGoldenDigest/%s' -v ./internal/core/",
					row.digest, got, row.name)
			}
		})
	}
}
