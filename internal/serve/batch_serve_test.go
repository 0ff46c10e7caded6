package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
)

// compareJudgments requires two wire judgment streams to be identical; the
// 41-byte frame encoding is a pure function of the struct, so struct
// equality is byte equality on the wire.
func compareJudgments(t *testing.T, label string, got, want []Judgment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: judged %d vectors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: judgment %d diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchedE2EBitIdentical is the tentpole acceptance test: with
// micro-batching enabled and several sessions of *different backends* and
// different traffic streaming concurrently (mixed batches), every session's
// judgment stream and detection summary are byte-identical to the
// unbatched in-process reference for its backend and traffic. Run under
// -race in CI.
func TestBatchedE2EBitIdentical(t *testing.T) {
	dep, stream := fixtures(t)
	backends := []string{kernels.BackendGPU, kernels.BackendNativeCalibrated}

	// The default traffic (deployment stride, default gap) runs on every
	// backend. The dense traffic is perfbench's serve-dense-batched one: a
	// client-chosen stride 8 and a gap of 100000 cycles, which drains the
	// MCM FIFO between vectors so every strided vector is judged. It runs on
	// the native backend only: gpu sessions on it take tens of seconds
	// under -race.
	traffics := []struct {
		stride   int
		gap      int64
		stream   []byte
		backends []string
	}{
		{0, 0, stream[:len(stream)/4], backends},
		{8, 100_000, stream[:len(stream)/16], backends[1:]},
	}
	type session struct {
		hello  Hello
		stream []byte
		want   []Judgment
	}
	var kinds []session
	for _, tr := range traffics {
		for _, b := range tr.backends {
			want, _ := referenceRun(t, dep, b, tr.stride, tr.gap, tr.stream)
			if len(want) == 0 {
				t.Fatal("reference run judged nothing; lengthen the fixture")
			}
			kinds = append(kinds, session{
				hello: Hello{
					Benchmark: fixBench, Model: "lstm", Backend: b, Attack: testAttack,
					Stride: tr.stride, GapCycles: tr.gap,
				},
				stream: tr.stream,
				want:   want,
			})
		}
	}
	// Two clients per backend and traffic, all concurrent: batches mix
	// backends, traffics and sessions freely.
	sessions := append(append([]session(nil), kinds...), kinds...)

	tel := obs.NewMetricsOnly()
	addr := startServer(t, []Option{
		WithWorkers(4),
		WithBatching(100*time.Microsecond, 8),
		WithTelemetry(tel),
	}, dep)

	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s session) {
			defer wg.Done()
			label := fmt.Sprintf("client %d (%s, stride %d)", i, s.hello.Backend, s.hello.Stride)
			c, err := Dial(addr, s.hello, nil)
			if err != nil {
				errs[i] = err
				return
			}
			chunk := 2048 * (i + 1)
			for off := 0; off < len(s.stream); off += chunk {
				end := off + chunk
				if end > len(s.stream) {
					end = len(s.stream)
				}
				if err := c.Send(s.stream[off:end]); err != nil {
					errs[i] = err
					return
				}
			}
			sum, err := c.Finish()
			if err != nil {
				errs[i] = err
				return
			}
			got := c.Judgments()
			if len(got) != len(s.want) {
				errs[i] = fmt.Errorf("%s: judged %d, want %d", label, len(got), len(s.want))
				return
			}
			for k := range got {
				if got[k] != s.want[k] {
					errs[i] = fmt.Errorf("%s: judgment %d diverged under batching:\n got %+v\nwant %+v",
						label, k, got[k], s.want[k])
					return
				}
			}
			if sum.Judged != len(s.want) {
				errs[i] = fmt.Errorf("%s: summary judged %d, want %d", label, sum.Judged, len(s.want))
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	if rows := tel.Reg.Counter("rtad_serve_batch_rows_total").Value(); rows == 0 {
		t.Error("no inferences went through the batching coordinator")
	}
	if n := tel.Reg.Histogram("rtad_serve_batch_size", BatchSizeBuckets).Count(); n == 0 {
		t.Error("batch-size histogram recorded nothing")
	}
	if n := tel.Reg.Histogram("rtad_serve_batch_infer_latency_us", BatchLatencyBuckets).Count(); n == 0 {
		t.Error("batch-latency histogram recorded nothing")
	}
	flushes := tel.Reg.Counter("rtad_serve_batch_flush_window_total").Value() +
		tel.Reg.Counter("rtad_serve_batch_flush_full_total").Value() +
		tel.Reg.Counter("rtad_serve_batch_flush_starve_total").Value() +
		tel.Reg.Counter("rtad_serve_batch_flush_drain_total").Value()
	if flushes == 0 {
		t.Error("no batch flushes counted")
	}
}

// TestBatchedVsUnbatchedSoloClient pins the window-0 contract from the
// other side: one client against a batched server equals the same client
// against an unbatched server (batch size 1, window flushes).
func TestBatchedVsUnbatchedSoloClient(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]

	run := func(opts []Option) []Judgment {
		addr := startServer(t, opts, dep)
		c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated}, nil)
		if err != nil {
			t.Fatal(err)
		}
		streamChunks(t, c, short, 8192)
		return c.Judgments()
	}
	unbatched := run(nil)
	batched := run([]Option{WithBatching(50*time.Microsecond, 4)})
	if len(unbatched) == 0 {
		t.Fatal("no judgments; lengthen the fixture")
	}
	compareJudgments(t, "solo batched client", batched, unbatched)
}

// TestDrainFlushesPartialBatches: with a window far longer than the test
// and an unreachable BatchMax, nothing times out or fills — only starve
// flushes (batch-size adaptation) and the shutdown drain can release
// parked work. Every in-flight session must still deliver its full
// judgment stream and summary frame through Shutdown, and the streams must
// match the unbatched reference. (Whether any batch is actually pending at
// the drain instant depends on scheduling, so the drain counter itself is
// pinned by the deterministic TestBatcherDrainReleasesParked below.)
func TestDrainFlushesPartialBatches(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]
	want, _ := referenceRun(t, dep, kernels.BackendNativeCalibrated, 0, 0, short)

	tel := obs.NewMetricsOnly()
	srv := New(nil,
		WithWorkers(2),
		WithBatching(10*time.Minute, 1<<20), // never expires, never fills
		WithTelemetry(tel),
	)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const clients = 3
	type result struct {
		sum *Summary
		js  []Judgment
		err error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, Hello{
				Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated, Attack: testAttack,
			}, nil)
			if err != nil {
				results[i].err = err
				return
			}
			for off := 0; off < len(short); off += 8192 {
				end := off + 8192
				if end > len(short) {
					end = len(short)
				}
				if err := c.Send(short[off:end]); err != nil {
					results[i].err = err
					return
				}
			}
			// Finish blocks: the session is parked in a batch that only a
			// drain flush will release.
			results[i].sum, results[i].err = c.Finish()
			results[i].js = c.Judgments()
		}(i)
	}

	// Let the sessions reach their first parked inference, then shut down.
	time.Sleep(300 * time.Millisecond)
	srv.Shutdown(time.Minute)
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d did not finish cleanly through the drain: %v", i, r.err)
		}
		if r.sum == nil {
			t.Fatalf("client %d got no summary frame", i)
		}
		compareJudgments(t, fmt.Sprintf("client %d", i), r.js, want)
	}
	if n := tel.Reg.Counter("rtad_serve_batch_flush_window_total").Value(); n != 0 {
		t.Errorf("window flushes counted (%d) with a 10-minute window", n)
	}
	if n := tel.Reg.Counter("rtad_serve_batch_flush_full_total").Value(); n != 0 {
		t.Errorf("full flushes counted (%d) with an unreachable BatchMax", n)
	}
}

// stubBackend is a minimal deterministic Backend for coordinator unit
// tests: the judgment echoes the first window word, so delivery mixups
// are visible.
type stubBackend struct{ calls int }

func (s *stubBackend) Name() string { return "stub" }
func (s *stubBackend) Window() int  { return 3 }
func (s *stubBackend) Infer(w []int32) (kernels.Judgment, int64, error) {
	s.calls++
	return kernels.Judgment{MarginQ: w[0]}, 7, nil
}
func (s *stubBackend) InferBatch(ws [][]int32) ([]kernels.Judgment, []int64, error) {
	return kernels.InferLoop(s, ws)
}

// waitParked polls until n requests are parked with the coordinator.
func waitParked(t *testing.T, b *batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		cur := len(b.cur)
		b.mu.Unlock()
		if cur >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never reached %d parked requests (have %d)", n, cur)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherDrainReleasesParked pins the drain flush deterministically:
// with two registered producers, a lone submitter parks (the coordinator
// expects the second producer to contribute or flush), and only startDrain
// releases it.
func TestBatcherDrainReleasesParked(t *testing.T) {
	tel := obs.NewMetricsOnly()
	b := newBatcher(10*time.Minute, 1<<20, tel, nil)
	b.producerUp()
	b.producerUp() // a second live producer keeps the submitter parked
	e := b.wrap(&stubBackend{}).(*batchedEngine)
	done := make(chan error, 1)
	go func() {
		js, cycles, err := e.InferBatch([][]int32{{1, 2, 3}, {4, 5, 6}})
		if err == nil {
			if len(js) != 2 || len(cycles) != 2 || js[0].MarginQ != 1 || js[1].MarginQ != 4 {
				err = fmt.Errorf("bad results: js=%+v cycles=%v", js, cycles)
			}
		}
		done <- err
	}()
	waitParked(t, b, 1)
	select {
	case err := <-done:
		t.Fatalf("parked inference returned before drain (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	b.startDrain()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := b.mFlushDrain.Value(); n != 1 {
		t.Fatalf("drain flushes = %d, want 1", n)
	}
	if n := b.mFlushStarve.Value(); n != 0 {
		t.Fatalf("starve flushes = %d, want 0", n)
	}
	b.producerDown()
	b.producerDown()
	b.close()
}

// TestBatcherStarveFlush pins the starve rule: when every registered
// producer is parked in the batch, the last submitter yields once and then
// flushes inline rather than waiting out the window.
func TestBatcherStarveFlush(t *testing.T) {
	tel := obs.NewMetricsOnly()
	b := newBatcher(10*time.Minute, 1<<20, tel, nil)
	b.producerUp()
	e := b.wrap(&stubBackend{}).(*batchedEngine)
	j, cycles, err := e.Infer([]int32{9, 8, 7}) // sole producer: flushes itself
	if err != nil {
		t.Fatal(err)
	}
	if j.MarginQ != 9 || cycles != 7 {
		t.Fatalf("bad result: %+v / %d", j, cycles)
	}
	if n := b.mFlushStarve.Value(); n != 1 {
		t.Fatalf("starve flushes = %d, want 1", n)
	}
	b.producerDown()
	b.close()
}

// TestBatcherProducerExitFlushes pins the producer-exit path: a parked
// batch whose last outside producer leaves flushes on that producer's way
// out instead of waiting for the window.
func TestBatcherProducerExitFlushes(t *testing.T) {
	tel := obs.NewMetricsOnly()
	b := newBatcher(10*time.Minute, 1<<20, tel, nil)
	b.producerUp()
	b.producerUp()
	e := b.wrap(&stubBackend{}).(*batchedEngine)
	done := make(chan error, 1)
	go func() {
		_, _, err := e.InferBatch([][]int32{{5, 5, 5}})
		done <- err
	}()
	waitParked(t, b, 1)
	b.producerDown() // the non-submitting producer exits its chunk
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := b.mFlushStarve.Value(); n != 1 {
		t.Fatalf("starve flushes = %d, want 1", n)
	}
	b.producerDown()
	b.close()
}

// TestHelloStride: the default hello's welcome reports core's resolution
// (stride, replay gap, backend); a client-selected stride is honoured,
// echoed in the welcome, and denser than the default; a negative stride is
// rejected.
func TestHelloStride(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]
	addr := startServer(t, nil, dep)

	run := func(stride int) (*Welcome, []Judgment) {
		c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Stride: stride}, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := c.Welcome()
		streamChunks(t, c, short, 8192)
		return &w, c.Judgments()
	}
	wDefault, jDefault := run(0)
	if wDefault.Stride != core.DefaultLSTMStride || wDefault.GapCycles != core.DefaultReplayGap ||
		wDefault.Backend != kernels.DefaultBackend {
		t.Fatalf("default welcome reports stride %d, gap %d, backend %q; want %d, %d, %q",
			wDefault.Stride, wDefault.GapCycles, wDefault.Backend,
			core.DefaultLSTMStride, core.DefaultReplayGap, kernels.DefaultBackend)
	}
	wDense, jDense := run(wDefault.Stride / 4)
	if wDense.Stride != wDefault.Stride/4 {
		t.Fatalf("welcome stride %d, asked for %d", wDense.Stride, wDefault.Stride/4)
	}
	if len(jDense) <= len(jDefault) {
		t.Fatalf("quarter stride judged %d vectors, default stride %d — expected denser", len(jDense), len(jDefault))
	}

	_, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm", Stride: -1}, nil)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != ErrBadHello {
		t.Fatalf("negative stride: got %v, want bad-hello rejection", err)
	}
}

// TestClientContextCancel: cancelling the DialContext context unblocks a
// client mid-session with a context-attributed error.
func TestClientContextCancel(t *testing.T) {
	dep, stream := fixtures(t)
	addr := startServer(t, nil, dep)

	ctx, cancel := context.WithCancel(context.Background())
	c, err := DialContext(ctx, addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(stream[:4096]); err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = c.Finish()
	if err == nil {
		t.Fatal("Finish succeeded after the context was cancelled")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "cancel") &&
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("Finish error not attributable to cancellation: %v", err)
	}

	// An already-cancelled context never dials.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := DialContext(cancelled, addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil); err == nil {
		t.Fatal("DialContext succeeded with a cancelled context")
	}
}

// TestClientOpTimeout: a server that stops responding trips the per-op
// timeout rather than hanging the client forever.
func TestClientOpTimeout(t *testing.T) {
	// A listener that completes the handshake and then goes silent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1<<16)
		if _, _, _, err := ReadFrame(conn, buf); err != nil { // hello
			return
		}
		writeJSON(conn, FrameWelcome, &Welcome{Proto: Proto, Session: "s-silent"})
		time.Sleep(time.Minute) // never answer again
	}()

	c, err := Dial(ln.Addr().String(), Hello{Benchmark: "x", Model: "lstm"}, nil,
		WithOpTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Finish()
	if err == nil {
		t.Fatal("Finish succeeded against a silent server")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("per-op timeout did not bound the wait: %v", elapsed)
	}
}
