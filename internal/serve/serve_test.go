package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rtad/internal/core"
	"rtad/internal/cpu"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

// Shared fixtures: training dominates test time, so the deployment and the
// captured victim trace are built once and shared read-only by every test —
// the same immutability contract the server itself relies on.
var (
	fixOnce   sync.Once
	fixErr    error
	fixDep    *core.Deployment
	fixStream []byte
)

const (
	fixBench = "458.sjeng"
	fixInstr = 2_000_000
)

func fixtures(t *testing.T) (*core.Deployment, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		p, ok := workload.ByName(fixBench)
		if !ok {
			fixErr = fmt.Errorf("unknown benchmark %s", fixBench)
			return
		}
		cfg := core.DefaultTrainConfig(p, core.ModelLSTM)
		cfg.TrainInstr = 1_200_000
		fixDep, fixErr = core.Train(cfg)
		if fixErr != nil {
			return
		}
		fixStream, fixErr = captureTrace(p, fixInstr)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDep, fixStream
}

// captureTrace records a victim run as the raw branch-broadcast PTM stream
// a CoreSight probe would emit (what cmd/tracegen captures).
func captureTrace(p workload.Profile, instr int64) ([]byte, error) {
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
	var stream []byte
	c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
		stream = enc.EncodeInto(stream, ev)
		return 0
	})})
	if _, err := c.Run(instr); err != nil {
		return nil, err
	}
	return append(stream, enc.Flush()...), nil
}

// startServer runs a server over dep on a loopback listener and returns its
// address; the server is shut down with the test.
func startServer(t *testing.T, opts []Option, deps ...*core.Deployment) string {
	t.Helper()
	srv := New(nil, opts...)
	for _, d := range deps {
		srv.Deploy(d)
	}
	return serveLoopback(t, srv)
}

// serveLoopback serves srv on an ephemeral loopback port until the test
// ends, then drains it, and returns the address.
func serveLoopback(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(10 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

var testAttack = &AttackSpec{TriggerBranch: 1000, BurstLen: 16384, Seed: 7}

// referenceRun replays stream through an in-process trace-input session at
// the given stride and gap (0 = the defaults a hello without them gets) —
// the ground truth the wire path must reproduce bit-identically.
func referenceRun(t *testing.T, dep *core.Deployment, backend string, stride int, gap int64, stream []byte) ([]Judgment, *core.DetectionResult) {
	t.Helper()
	s, err := core.Open(core.Deployments{dep},
		core.WithConfig(core.PipelineConfig{Backend: backend, Stride: stride}),
		core.WithTraceInput(gap),
		core.WithAttack(core.AttackSpec{
			TriggerBranch: testAttack.TriggerBranch,
			BurstLen:      testAttack.BurstLen,
			Seed:          testAttack.Seed,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedTrace(stream); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var out []Judgment
	for _, j := range s.Results() {
		out = append(out, Judgment{
			Seq:         j.Vector.Seq,
			Done:        int64(j.Rec.Done),
			FinalRetire: int64(j.FinalRetire),
			IRQAt:       int64(j.Rec.IRQAt),
			MarginQ:     j.Rec.Judgment.MarginQ,
			EwmaQ:       j.Rec.Judgment.EwmaQ,
			Anomaly:     j.Rec.Judgment.Anomaly,
		})
	}
	res, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

// streamChunks sends the trace in fixed-size chunks and finishes.
func streamChunks(t *testing.T, c *Client, stream []byte, chunk int) *Summary {
	t.Helper()
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		if err := c.Send(stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestE2EBitIdenticalAcrossBackends is the acceptance test: a trace
// streamed through rtadd yields the exact judgment sequence and detection
// summary of the in-process Session path, for every inference backend.
func TestE2EBitIdenticalAcrossBackends(t *testing.T) {
	dep, stream := fixtures(t)
	addr := startServer(t, nil, dep)
	for _, backend := range []string{kernels.BackendGPU, kernels.BackendNativeCalibrated} {
		t.Run(backend, func(t *testing.T) {
			wantJ, wantRes := referenceRun(t, dep, backend, 0, 0, stream)
			c, err := Dial(addr, Hello{
				Benchmark: fixBench, Model: "lstm", Backend: backend, Attack: testAttack,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := streamChunks(t, c, stream, 4096)
			gotJ := c.Judgments()

			if len(gotJ) != len(wantJ) {
				t.Fatalf("wire session judged %d vectors, in-process %d", len(gotJ), len(wantJ))
			}
			for i := range gotJ {
				if gotJ[i] != wantJ[i] {
					t.Fatalf("judgment %d diverged:\n wire %+v\n ref  %+v", i, gotJ[i], wantJ[i])
				}
			}
			if !sum.AttackFired || sum.Detection == nil {
				t.Fatalf("summary reports no attack: %+v", sum)
			}
			d := sum.Detection
			if d.Detected != wantRes.Detected ||
				d.InjectTimePS != int64(wantRes.InjectTime) ||
				d.LatencyPS != int64(wantRes.Latency) ||
				d.MeanLatencyPS != int64(wantRes.MeanLatency) ||
				d.IRQTimePS != int64(wantRes.IRQTime) ||
				d.FirstSeq != wantRes.First.Vector.Seq {
				t.Fatalf("detection summary diverged:\n wire %+v\n ref  %+v", d, wantRes)
			}
			if sum.Judged != wantRes.Judged || sum.Dropped != wantRes.Dropped {
				t.Fatalf("pipeline counts diverged: wire %d/%d, ref %d/%d",
					sum.Judged, sum.Dropped, wantRes.Judged, wantRes.Dropped)
			}
			if sum.TraceBytes != int64(len(stream)) {
				t.Fatalf("summary counted %d trace bytes, sent %d", sum.TraceBytes, len(stream))
			}
		})
	}
}

// TestChunkingInvariance: byte-at-a-time wire delivery matches one big
// chunk — the replay clock depends only on the decoded event sequence.
func TestChunkingInvariance(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]
	addr := startServer(t, nil, dep)

	run := func(chunk int) []Judgment {
		c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		streamChunks(t, c, short, chunk)
		return c.Judgments()
	}
	big := run(len(short))
	tiny := run(37)
	if len(big) == 0 {
		t.Fatal("no judgments from the short stream; lengthen the fixture")
	}
	if len(big) != len(tiny) {
		t.Fatalf("chunking changed judgment count: %d vs %d", len(big), len(tiny))
	}
	for i := range big {
		if big[i] != tiny[i] {
			t.Fatalf("judgment %d depends on chunking:\n %+v\n %+v", i, big[i], tiny[i])
		}
	}
}

// TestConcurrentClients streams from 8 clients at once (run under -race in
// CI) and requires every session to match the single-client reference.
func TestConcurrentClients(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/4]
	addr := startServer(t, []Option{WithWorkers(4)}, dep)

	ref, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamChunks(t, ref, short, 8192)
	want := ref.Judgments()
	if len(want) == 0 {
		t.Fatal("reference session judged nothing")
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			chunk := 1024 * (i + 1) // different chunking per client
			for off := 0; off < len(short); off += chunk {
				end := off + chunk
				if end > len(short) {
					end = len(short)
				}
				if err := c.Send(short[off:end]); err != nil {
					errs[i] = err
					return
				}
			}
			if _, err := c.Finish(); err != nil {
				errs[i] = err
				return
			}
			got := c.Judgments()
			if len(got) != len(want) {
				errs[i] = fmt.Errorf("client %d judged %d, want %d", i, len(got), len(want))
				return
			}
			for k := range got {
				if got[k] != want[k] {
					errs[i] = fmt.Errorf("client %d judgment %d diverged", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestBusyRejection: with MaxSessions=1 the second hello gets an explicit
// busy error frame, and admission reopens once the first session ends.
func TestBusyRejection(t *testing.T) {
	dep, stream := fixtures(t)
	tel := obs.NewMetricsOnly()
	srv := New(nil, WithMaxSessions(1), WithTelemetry(tel))
	srv.Deploy(dep)
	addr := serveLoopback(t, srv)

	c1, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(stream[:4096]); err != nil {
		t.Fatal(err)
	}

	_, err = Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != ErrBusy {
		t.Fatalf("second dial: got %v, want busy rejection", err)
	}
	if got := tel.Reg.Counter("rtad_serve_rejected_busy_total").Value(); got != 1 {
		t.Fatalf("busy rejections counter = %d, want 1", got)
	}

	if _, err := c1.Finish(); err != nil {
		t.Fatal(err)
	}
	// The slot frees once the session fully ends; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
		if err == nil {
			if _, err := c3.Finish(); err != nil {
				t.Fatal(err)
			}
			break
		}
		if !errors.As(err, &em) || em.Code != ErrBusy || time.Now().After(deadline) {
			t.Fatalf("post-finish dial: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Finish returns once the summary frame arrives, before the server's
	// deferred session end runs; wait for that end before reading the
	// gauge. A stale gauge write would stay at 1 for good, so the exact
	// check below still catches it.
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live on the server", len(srv.Sessions()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tel.Reg.Gauge("rtad_serve_sessions_live").Value(); got != 0 {
		t.Fatalf("live sessions gauge = %d after all sessions ended", got)
	}
}

// TestGracefulShutdown: in-flight sessions drain to a full summary while
// hellos arriving mid-drain get an explicit draining rejection.
func TestGracefulShutdown(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]

	srv := New(nil)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(short[:len(short)/2]); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() { srv.Shutdown(30 * time.Second); close(shutdownDone) }()

	// A hello racing the drain must get the explicit draining error, not a
	// refused connection: the listener stays open until the drain ends.
	var sawDraining bool
	for i := 0; i < 100; i++ {
		_, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
		var em *ErrorMsg
		if errors.As(err, &em) && em.Code == ErrDraining {
			sawDraining = true
			break
		}
		select {
		case <-shutdownDone:
			t.Fatal("shutdown completed while a session was still streaming")
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("never saw a draining rejection during shutdown")
	}

	// The in-flight session finishes normally, summary included.
	if err := c.Send(short[len(short)/2:]); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Finish()
	if err != nil {
		t.Fatalf("in-flight session did not drain cleanly: %v", err)
	}
	if sum.Events == 0 || len(c.Judgments()) == 0 {
		t.Fatalf("drained session summary is empty: %+v", sum)
	}

	<-shutdownDone
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestHelloRejections covers the negotiation error paths, including
// numbers beyond their owners' bounds: each would otherwise size an
// allocation (CUs), pin a fleet worker (burst length) or wrap the replay
// clock (gap). The server must then still serve a normal session.
func TestHelloRejections(t *testing.T) {
	dep, stream := fixtures(t)
	addr := startServer(t, nil, dep)
	lstm := func(h Hello) Hello {
		h.Benchmark, h.Model = fixBench, "lstm"
		return h
	}
	cases := []struct {
		name  string
		hello Hello
		code  string
	}{
		{"unknown model", Hello{Benchmark: fixBench, Model: "elm"}, ErrBadHello},
		{"unknown benchmark", Hello{Benchmark: "no-such", Model: "lstm"}, ErrBadHello},
		{"bad proto", lstm(Hello{Proto: "rtad-wire/99"}), ErrProto},
		{"window mismatch", lstm(Hello{Window: 3}), ErrBadHello},
		{"bad backend", lstm(Hello{Backend: "tpu"}), ErrBadHello},
		{"bad attack", lstm(Hello{Attack: &AttackSpec{}}), ErrBadHello},
		{"huge cus", lstm(Hello{CUs: 1 << 40}), ErrBadHello},
		{"cus 6", lstm(Hello{CUs: core.MaxCUs + 1}), ErrBadHello},
		{"cus -1", lstm(Hello{CUs: -1}), ErrBadHello},
		{"huge burst", lstm(Hello{Attack: &AttackSpec{BurstLen: 1 << 40}}), ErrBadHello},
		{"huge gap", lstm(Hello{GapCycles: 1 << 62}), ErrBadHello},
		{"gap -1", lstm(Hello{GapCycles: -1}), ErrBadHello},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Dial(addr, tc.hello, nil)
			var em *ErrorMsg
			if !errors.As(err, &em) || em.Code != tc.code {
				t.Fatalf("got %v, want %s rejection", err, tc.code)
			}
		})
	}
	c, err := Dial(addr, lstm(Hello{}), nil)
	if err != nil {
		t.Fatalf("normal hello after the rejections: %v", err)
	}
	streamChunks(t, c, stream[:len(stream)/16], 8192)
	if len(c.Judgments()) == 0 {
		t.Fatal("normal session after the rejections judged nothing")
	}
}

// TestServeMetrics checks the serving gauges and counters end to end.
func TestServeMetrics(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]
	tel := obs.NewMetricsOnly()
	addr := startServer(t, []Option{WithTelemetry(tel)}, dep)

	c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamChunks(t, c, short, 2048)

	if got := tel.Reg.Counter("rtad_serve_sessions_total").Value(); got != 1 {
		t.Errorf("sessions_total = %d", got)
	}
	if got := tel.Reg.Counter("rtad_serve_bytes_in_total").Value(); got != int64(len(short)) {
		t.Errorf("bytes_in_total = %d, want %d", got, len(short))
	}
	if got := tel.Reg.Counter("rtad_serve_judgments_total").Value(); got != int64(len(c.Judgments())) {
		t.Errorf("judgments_total = %d, want %d", got, len(c.Judgments()))
	}
}
