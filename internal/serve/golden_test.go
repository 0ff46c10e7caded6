package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rtad/internal/kernels"
)

// servedDigest is a SHA-256 over, for every judgment frame in arrival
// order, Seq, Done, FinalRetire, IRQAt, MarginQ, EwmaQ and Anomaly, then
// the summary's Judged, Dropped, MaxOccupancy, TraceBytes, Events and
// DecodeErrors, then whether it carries a Detection and, if so, its
// Detected, InjectTimePS, LatencyPS, MeanLatencyPS, IRQTimePS and FirstSeq;
// each value as a little-endian int64.
func servedDigest(js []Judgment, sum *Summary) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, j := range js {
		put(j.Seq)
		put(j.Done)
		put(j.FinalRetire)
		put(j.IRQAt)
		put(int64(j.MarginQ))
		put(int64(j.EwmaQ))
		put(flag(j.Anomaly))
	}
	put(int64(sum.Judged))
	put(sum.Dropped)
	put(int64(sum.MaxOccupancy))
	put(sum.TraceBytes)
	put(sum.Events)
	put(int64(sum.DecodeErrors))
	put(flag(sum.Detection != nil))
	if d := sum.Detection; d != nil {
		put(flag(d.Detected))
		put(d.InjectTimePS)
		put(d.LatencyPS)
		put(d.MeanLatencyPS)
		put(d.IRQTimePS)
		put(d.FirstSeq)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestServedGoldenDigest pins what an unbatched served session makes of a
// fixed capture to a committed digest, so a change that moves the wire
// path, the server or anything behind it shows here even when it moves
// the in-process replay alike.
//
// Input: the fixtures deployment (an LSTM trained on 458.sjeng for 1.2M
// instructions) and the first sixteenth of its 2M-instruction
// branch-broadcast capture, sent in 4096-byte chunks to a serve.New server
// with default options. Hello: native-calibrated, stride 8, replay gap
// 100000 cycles, testAttack. The digest is servedDigest over the judgment
// frames and the summary.
func TestServedGoldenDigest(t *testing.T) {
	const want = "cee02a1059c6a163c5acd72b3047ab394a4e0de5f821533969fa7e299d44e1d6"
	dep, stream := fixtures(t)
	addr := startServer(t, nil, dep)
	var js []Judgment
	c, err := Dial(addr, Hello{
		Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated,
		Stride: 8, GapCycles: 100_000, Attack: testAttack,
	}, collect(&js))
	if err != nil {
		t.Fatal(err)
	}
	sum := streamChunks(t, c, stream[:len(stream)/16], 4096)
	if len(js) == 0 || sum.Detection == nil {
		t.Fatalf("%d judgments, detection %+v; lengthen the capture", len(js), sum.Detection)
	}
	t.Logf("%d judgments, %d dropped, %d events; detection %+v", len(js), sum.Dropped, sum.Events, *sum.Detection)
	if got := servedDigest(js, sum); got != want {
		t.Errorf("digest changed:\n old %s\n new %s\nregenerate it with: go test -run 'TestServedGoldenDigest' -v ./internal/serve/",
			want, got)
	}
}
