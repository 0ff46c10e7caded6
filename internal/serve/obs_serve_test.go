package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtad/internal/kernels"
	"rtad/internal/obs"
)

// TestObservabilityIsObservationOnly pins the core contract of this layer:
// turning on every observer at once — metrics, structured logs, wall
// tracing, flight recording — must not change a single judgment byte, in
// either the unbatched or the micro-batched configuration. Observation
// never mutates simulation state.
func TestObservabilityIsObservationOnly(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]

	type obsState struct {
		log    *bytes.Buffer
		wall   *obs.WallTracer
		flight *obs.FlightRecorder
	}
	run := func(opts []Option, st *obsState) []Judgment {
		srv := New(nil, opts...)
		srv.Deploy(dep)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		c, err := Dial(ln.Addr().String(), Hello{
			Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated, Attack: testAttack,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		streamChunks(t, c, short, 4096)
		js := c.Judgments()
		srv.Shutdown(10 * time.Second)
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if st != nil {
			// Guard against a vacuous pass: every observer must actually
			// have observed the session.
			if st.log.Len() == 0 {
				t.Error("full observability on, but no log lines")
			}
			if st.wall.Events() == 0 {
				t.Error("full observability on, but no wall-trace events")
			}
			if len(st.flight.Sessions()) == 0 {
				t.Error("full observability on, but no flight-recorder rings")
			}
		}
		return js
	}
	observed := func(base []Option) ([]Option, *obsState) {
		st := &obsState{
			log:    &bytes.Buffer{},
			wall:   obs.NewWallTracer(),
			flight: obs.NewFlightRecorder(8, 4), // tight bounds: wrap + evict on purpose
		}
		logger, err := obs.NewLogger(st.log, "text", slog.LevelDebug)
		if err != nil {
			t.Fatal(err)
		}
		opts := append(append([]Option(nil), base...),
			WithTelemetry(obs.NewMetricsOnly()),
			WithLogger(logger),
			WithWallTracer(st.wall),
			WithFlight(st.flight),
		)
		return opts, st
	}

	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"unbatched", nil},
		{"batched", []Option{WithBatching(100*time.Microsecond, 8)}},
	} {
		plain := run(mode.opts, nil)
		if len(plain) == 0 {
			t.Fatalf("%s: no judgments; lengthen the fixture", mode.name)
		}
		obsOpts, st := observed(mode.opts)
		full := run(obsOpts, st)
		compareJudgments(t, mode.name+" observed vs plain", full, plain)
	}
}

// TestDebugEndpointsConcurrentWithDrain scrapes /metrics, /debug/sessions
// and /debug/flightrecorder in a tight loop while sessions stream and the
// server drains — the shutdown race a real deployment hits every deploy.
// Run under -race in CI; the assertions here are "nothing breaks and the
// snapshots are well-formed", the data race detector does the rest.
func TestDebugEndpointsConcurrentWithDrain(t *testing.T) {
	dep, stream := fixtures(t)
	short := stream[:len(stream)/8]

	tel := obs.NewMetricsOnly()
	srv := New(nil,
		WithWorkers(2),
		WithBatching(100*time.Microsecond, 8),
		WithTelemetry(tel),
		WithFlight(obs.NewFlightRecorder(0, 0)),
		WithWallTracer(obs.NewWallTracer()),
	)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	msrv, err := obs.Serve("127.0.0.1:0", tel.Reg,
		obs.Route{Pattern: "/debug/sessions", Handler: srv.SessionsHandler()},
		obs.Route{Pattern: "/debug/flightrecorder", Handler: srv.FlightHandler()},
	)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 3
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(ln.Addr().String(), Hello{
				Benchmark: fixBench, Model: "lstm", Backend: kernels.BackendNativeCalibrated,
			}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			for off := 0; off < len(short); off += 4096 {
				end := off + 4096
				if end > len(short) {
					end = len(short)
				}
				if err := c.Send(short[off:end]); err != nil {
					errs[i] = err
					return
				}
			}
			_, errs[i] = c.Finish()
		}(i)
	}

	// Scrapers hammer all three endpoints until told to stop — through the
	// streaming phase AND the drain.
	var sawSession atomic.Bool
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/debug/sessions", "/debug/flightrecorder"} {
				resp, err := http.Get("http://" + msrv.Addr() + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				if path == "/debug/sessions" {
					var doc struct {
						Sessions []SessionInfo `json:"sessions"`
					}
					if err := json.Unmarshal(body, &doc); err != nil {
						t.Errorf("malformed /debug/sessions: %v\n%s", err, body)
						return
					}
					for _, s := range doc.Sessions {
						if s.ID == "" {
							t.Errorf("session row without an id: %+v", s)
						}
						sawSession.Store(true)
					}
				}
			}
		}
	}()

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Drain while the scrapers are still hitting every endpoint.
	srv.Shutdown(time.Minute)
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	close(stopScrape)
	scrapeWG.Wait()
	if err := msrv.Close(); err != nil {
		t.Fatalf("metrics endpoint close: %v", err)
	}

	if !sawSession.Load() {
		t.Log("no scrape caught a live session (timing-dependent); endpoint shape still verified")
	}
	if got := len(srv.Sessions()); got != 0 {
		t.Errorf("%d sessions still live after drain", got)
	}
}

// TestWelcomeSessionIDBackCompat pins the wire shape: the welcome frame
// carries the new session_id field alongside the legacy session field with
// the same value, and Client.SessionID prefers the new one — old servers
// (no session_id) fall back to the legacy field.
func TestWelcomeSessionIDBackCompat(t *testing.T) {
	dep, stream := fixtures(t)
	addr := startServer(t, nil, dep)
	c, err := Dial(addr, Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Welcome()
	if w.SessionID == "" {
		t.Fatal("welcome frame missing session_id")
	}
	if w.Session != w.SessionID {
		t.Errorf("legacy session %q != session_id %q", w.Session, w.SessionID)
	}
	if got := c.SessionID(); got != w.SessionID {
		t.Errorf("Client.SessionID = %q, want %q", got, w.SessionID)
	}
	streamChunks(t, c, stream[:len(stream)/16], 8192)

	// A server that predates session_id: the accessor falls back.
	legacy := Client{welcome: Welcome{Session: "s-old"}}
	if got := legacy.SessionID(); got != "s-old" {
		t.Errorf("legacy fallback SessionID = %q, want s-old", got)
	}

	var raw map[string]any
	blob, err := json.Marshal(Welcome{Session: "s-9", SessionID: "s-9"})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["session"] != "s-9" || raw["session_id"] != "s-9" {
		t.Errorf("welcome JSON = %v, want both session and session_id", raw)
	}
}

// TestFlightRecorderDumpsOnProtocolError drives a session into a protocol
// violation and checks the flight recorder kept the session's recent
// events — the post-mortem the recorder exists for.
func TestFlightRecorderDumpsOnProtocolError(t *testing.T) {
	dep, _ := fixtures(t)
	flight := obs.NewFlightRecorder(0, 0)
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "text", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(nil, WithFlight(flight), WithLogger(logger))
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String(), Hello{Benchmark: fixBench, Model: "lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := c.SessionID()
	// A second hello mid-session is a protocol violation.
	if err := WriteFrame(c.conn, FrameHello, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err == nil {
		t.Fatal("protocol violation went unnoticed")
	}
	srv.Shutdown(10 * time.Second)
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	events := flight.Dump(id)
	if len(events) == 0 {
		t.Fatalf("no flight events retained for session %s", id)
	}
	var sawOpen, sawProto bool
	for _, ev := range events {
		switch ev.Event {
		case "open":
			sawOpen = true
		case "proto-error":
			sawProto = true
		}
	}
	if !sawOpen || !sawProto {
		t.Errorf("flight ring missing open/proto-error: %+v", events)
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("flight recorder dump")) {
		t.Error("protocol error did not dump the flight recorder to the log")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte(obs.SessionKey+"="+id)) {
		t.Errorf("log lines not correlated with session %s:\n%s", id, logBuf.String())
	}
}
