package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"rtad/internal/kernels"
	"rtad/internal/ptm"
)

// replayRun is what one trace-replay session made of a stream: its
// judgments, its ReplayStats and the first error FeedTrace or Drain
// returned.
type replayRun struct {
	judged        []Judged
	bytes, events int64
	decErrs       int
	err           error
}

// replayPieces feeds pieces, in order, to a fresh trace-replay session
// opened with opts, then drains it. It stops at the first error.
func replayPieces(t testing.TB, dep *Deployment, opts []Option, pieces [][]byte) replayRun {
	t.Helper()
	s, err := Open(Deployments{dep}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var r replayRun
	for _, p := range pieces {
		if r.err = s.FeedTrace(p); r.err != nil {
			break
		}
		r.judged = append(r.judged, s.Results()...)
	}
	if r.err == nil {
		r.err = s.Drain()
	}
	r.judged = append(r.judged, s.Results()...)
	r.bytes, r.events, r.decErrs = s.ReplayStats()
	return r
}

// chunked cuts stream into pieces of n bytes, the last one shorter.
func chunked(stream []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(stream); off += n {
		out = append(out, stream[off:min(off+n, len(stream))])
	}
	return out
}

// digest is a SHA-256 over the run's ReplayStats and, for every judgment,
// Seq, Done, FinalRetire, MarginQ, EwmaQ, Anomaly and IRQAt, each as a
// little-endian int64.
func (r replayRun) digest() string {
	d := digestWriter{h: sha256.New()}
	d.put(r.bytes, r.events, int64(r.decErrs))
	for i := range r.judged {
		d.putJudged(&r.judged[i])
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// flipBits returns a copy of stream with n seeded single-bit flips.
func flipBits(stream []byte, n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), stream...)
	for range n {
		out[r.Intn(len(out))] ^= 1 << r.Intn(8)
	}
	return out
}

// injectGarbage returns a copy of stream with n seeded random bytes
// inserted at a seeded offset.
func injectGarbage(stream []byte, n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	at := r.Intn(len(stream))
	junk := make([]byte, n)
	r.Read(junk)
	out := append(append([]byte(nil), stream[:at]...), junk...)
	return append(out, stream[at:]...)
}

// replayOptions is the session set-up of the replay digests and of
// FuzzFeedTrace: native-calibrated at stride 8, sharing calib.
func replayOptions(calib *kernels.Calibration, gap int64) []Option {
	return []Option{
		WithConfig(PipelineConfig{Stride: 8, Backend: kernels.BackendNativeCalibrated, Calibration: calib}),
		WithTraceInput(gap),
	}
}

// TestReplayGoldenDigest pins what a trace-replay session makes of a fixed
// capture to committed digests, so a change that moves the decoder, the
// replay front or anything behind them shows here even when it moves every
// path of one commit alike.
//
// Input: captureStream(t, "458.sjeng", 400_000), a branch-broadcast capture
// of the first 400k instructions. Session: trainLSTMDeployment(t,
// "458.sjeng"), native-calibrated, stride 8, replay gap 100000 cycles. Each
// variant of the stream is fed in chunks of 1, 7 and 1024 bytes and whole,
// and every feed must give the row's digest (see replayRun.digest).
func TestReplayGoldenDigest(t *testing.T) {
	dep := trainLSTMDeployment(t, "458.sjeng")
	clean := captureStream(t, "458.sjeng", 400_000)
	calib := kernels.NewCalibration()
	rows := []struct {
		name   string
		stream []byte
		digest string
	}{
		{"clean", clean, "4626c9eaa7edd153a5105717861d8a3401b44a02bd355a026800b63bc2ebe408"},
		{"bitflip-200", flipBits(clean, 200, 1), "2c4acf71b4ae72b0156f750088aa65bd9bc6727766d91a8fc250a42a05f44d40"},
		{"garbage-4k", injectGarbage(clean, 4096, 2), "0c6ad7ca67983f541ec9676b9196888e621b1d6b8ef0582e7f8f84badbaf10e4"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			whole := replayPieces(t, dep, replayOptions(calib, 100_000), [][]byte{row.stream})
			if whole.err != nil {
				t.Fatal(whole.err)
			}
			if len(whole.judged) == 0 {
				t.Fatal("no judgments; lengthen the capture")
			}
			t.Logf("%d judgments; ReplayStats: %d bytes, %d events, %d decode errors",
				len(whole.judged), whole.bytes, whole.events, whole.decErrs)
			got := whole.digest()
			if got != row.digest {
				t.Errorf("digest changed:\n old %s\n new %s\nregenerate the row with: go test -run 'TestReplayGoldenDigest/%s' -v ./internal/core/",
					row.digest, got, row.name)
			}
			for _, n := range []int{1, 7, 1024} {
				if d := replayPieces(t, dep, replayOptions(calib, 100_000), chunked(row.stream, n)).digest(); d != got {
					t.Errorf("%d-byte chunks: digest %s, whole stream %s", n, d, got)
				}
			}
		})
	}
}

// FuzzFeedTrace feeds arbitrary bytes to a trace-replay session whole and
// again cut where the fuzzer says: cuts[i] is the length of the i-th piece
// (0 feeds an empty piece) and the rest follows in one piece. Neither run
// may panic, both must give the same judgments, ReplayStats and error, and
// the decode-error count must be what a fresh StreamDecoder counts over the
// same bytes.
func FuzzFeedTrace(f *testing.F) {
	capture := captureStream(f, "458.sjeng", 20_000)
	f.Add(capture, []byte{1, 7, 0, 200, 3})
	f.Add(flipBits(capture, 40, 3), []byte{13, 64, 2})
	junk := make([]byte, 2048)
	rand.New(rand.NewSource(4)).Read(junk)
	f.Add(junk, []byte{255, 1, 0, 0, 9})

	dep := trainLSTMDeployment(f, "458.sjeng")
	calib := kernels.NewCalibration()
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		opts := replayOptions(calib, 0)
		whole := replayPieces(t, dep, opts, [][]byte{data})
		var pieces [][]byte
		rest := data
		for _, c := range cuts {
			n := min(int(c), len(rest))
			pieces = append(pieces, rest[:n])
			rest = rest[n:]
		}
		split := replayPieces(t, dep, opts, append(pieces, rest))
		t.Logf("%d judgments; ReplayStats: %d bytes, %d events, %d decode errors",
			len(whole.judged), whole.bytes, whole.events, whole.decErrs)

		if whole.bytes != split.bytes || whole.events != split.events || whole.decErrs != split.decErrs {
			t.Fatalf("ReplayStats depend on the cuts: whole (%d, %d, %d), cut (%d, %d, %d)",
				whole.bytes, whole.events, whole.decErrs, split.bytes, split.events, split.decErrs)
		}
		if (whole.err == nil) != (split.err == nil) || whole.err != nil && whole.err.Error() != split.err.Error() {
			t.Fatalf("errors depend on the cuts: whole %v, cut %v", whole.err, split.err)
		}
		if !reflect.DeepEqual(whole.judged, split.judged) {
			t.Fatalf("judgments depend on the cuts: %d whole, %d cut", len(whole.judged), len(split.judged))
		}
		dec := ptm.NewStreamDecoder()
		for _, b := range data {
			dec.FeedByte(b)
		}
		if whole.bytes != int64(len(data)) || whole.decErrs != dec.Errors {
			t.Fatalf("ReplayStats read %d bytes and %d decode errors; the stream has %d bytes and a decoder counts %d errors",
				whole.bytes, whole.decErrs, len(data), dec.Errors)
		}
	})
}
