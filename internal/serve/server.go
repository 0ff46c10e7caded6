package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/registry"
)

// config sizes and paces a Server; New fills it from Options. The zero
// value is usable: unlimited sessions, fleet width GOMAXPROCS, one-minute
// I/O deadlines.
type config struct {
	// MaxSessions bounds concurrently live sessions; a hello beyond the
	// bound is rejected with an explicit ErrBusy frame rather than queued
	// invisibly. 0 means unlimited.
	MaxSessions int
	// Workers is the Fleet width the session runners share; 0 sizes it to
	// GOMAXPROCS. Sessions beyond the width stay admitted but wait for a
	// worker, buffered by their chunk queues and ultimately TCP.
	Workers int
	// ReadTimeout bounds the gap between client frames; WriteTimeout bounds
	// one response write. 0 means 1 minute each.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// BatchWindow enables cross-session micro-batched inference: pending
	// vectors from all admitted sessions are collected for up to this much
	// wall time (or until BatchMax of them are waiting) and judged in one
	// fused pass. 0 disables batching entirely — every session infers
	// inline, the pre-batching behaviour. Judgment streams are bit-identical
	// either way; the window only trades per-vector wait for aggregate
	// throughput.
	BatchWindow time.Duration
	// BatchMax caps one micro-batch (0 = DefaultBatchMax). A full batch
	// flushes without waiting out the window.
	BatchMax int
	// Telemetry records serve metrics (sessions, rejections, queue depth,
	// bytes, judgments, wall-clock stage latencies) alongside whatever the
	// registry already holds.
	Telemetry *obs.Telemetry
	// Logger receives structured logs — session lifecycle, errors, drain
	// progress — each session-scoped line tagged with the obs.SessionKey
	// attribute carrying the SessionID from the welcome frame. Nil is
	// silence.
	Logger *slog.Logger
	// WallTracer, when set, records wall-clock spans of the serving path —
	// frame reads, admission, chunk feeds, batch flushes, judgment writes —
	// tagged with session IDs, exportable as Perfetto JSON. Nil records
	// nothing.
	WallTracer *obs.WallTracer
	// Flight, when set, retains a bounded ring of recent per-session events
	// and is dumped (via Logger, as JSON) when a session panics, violates
	// the protocol, or aborts. Nil records nothing.
	Flight *obs.FlightRecorder
}

// queueDepth bounds each session's chunk queue, which decouples the
// connection reader from the simulation: 16 chunks of at most MaxFrame
// bytes cap a session's buffered trace at 16 MiB. A full queue blocks the
// reader, and TCP flow control then holds the client: lossless
// backpressure.
const queueDepth = 16

// ServeSecondsBuckets bound the rtad_serve_*_seconds stage-latency
// histograms: exponential, 1µs .. ~33s. Every serving-plane SLO histogram
// shares them so quantiles are comparable across stages.
var ServeSecondsBuckets = obs.ExpBuckets(1e-6, 2, 26)

// Server multiplexes rtad-wire sessions onto a bounded pool of pre-loaded
// read-only deployments. Trained Deployments are immutable during inference
// (the Fleet contract), so every session — and any number of concurrent
// sessions — may share one deployment; each session owns its private
// pipeline and replay clock, so concurrent sessions produce bit-identical
// judgment streams to a solo in-process run over the same bytes.
type Server struct {
	cfg config
	// reg is the versioned model registry behind admission: a session is
	// welcomed on the newest promoted version of its key and holds exactly
	// that version until it ends, which is the whole zero-downtime story —
	// Promote moves new admissions atomically while in-flight streams stay
	// byte-for-byte on the weights that welcomed them.
	reg   *registry.Registry
	pool  *core.Fleet
	batch *batcher // nil when BatchWindow is 0 (unbatched path)
	// calib is the server-wide cycle-cost table shared by every session's
	// native backend: the first session of a (model, window, CUs) shape
	// pays the one-time GPU calibration pass, and every later session
	// replays it — which also makes deferred judgment (and so chunk-level
	// batching) available from those sessions' first vector.
	calib *kernels.Calibration

	log *slog.Logger

	mu       sync.Mutex
	live     int
	draining bool
	closed   bool
	nextID   int64
	conns    map[net.Conn]struct{}
	states   map[string]*sessionState // live sessions, for /debug/sessions
	ln       net.Listener

	sessions sync.WaitGroup // live admitted sessions
	connWG   sync.WaitGroup // all connection goroutines

	// metrics (nil-safe when cfg.Telemetry is nil)
	mLive      *obs.Gauge
	mTotal     *obs.Counter
	mBusy      *obs.Counter
	mDraining  *obs.Counter
	mPanics    *obs.Counter
	mBytes     *obs.Counter
	mJudgments *obs.Counter
	mQueueMax  *obs.Gauge

	// wall-clock SLO histograms (rtad_serve_*_seconds), nil-safe too
	mReadSec  *obs.Histogram // one successful frame read (incl. client gap)
	mAdmitSec *obs.Histogram // hello parsed -> welcome written
	mFeedSec  *obs.Histogram // one chunk through FeedTrace (decode+sim+infer)
	mWriteSec *obs.Histogram // one judgment-burst socket write
	mE2ESec   *obs.Histogram // chunk read off the socket -> its last judgment written
}

// New builds a server that admits sessions from reg, the versioned model
// registry: every hello is admitted on the newest promoted version of its
// benchmark/model key and keeps that version until the session ends, so
// Promote swaps traffic atomically with zero downtime and zero rejected
// frames. A nil reg gets a fresh empty registry (populate it via Deploy or
// the admin endpoints).
func New(reg *registry.Registry, opts ...Option) *Server {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = time.Minute
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	tel := cfg.Telemetry
	var batch *batcher
	if cfg.BatchWindow > 0 {
		batch = newBatcher(cfg.BatchWindow, cfg.BatchMax, tel, cfg.WallTracer)
		logger.Info("serve: micro-batching sessions", "window", batch.window, "batch_max", batch.max)
	}
	if reg == nil {
		reg = registry.New()
	}
	if tel != nil {
		reg.Observe(tel)
	}
	return &Server{
		cfg:        cfg,
		reg:        reg,
		pool:       core.NewFleet(cfg.Workers),
		batch:      batch,
		calib:      kernels.NewCalibration(),
		log:        logger,
		conns:      map[net.Conn]struct{}{},
		states:     map[string]*sessionState{},
		mLive:      tel.Gauge("rtad_serve_sessions_live"),
		mTotal:     tel.Counter("rtad_serve_sessions_total"),
		mBusy:      tel.Counter("rtad_serve_rejected_busy_total"),
		mDraining:  tel.Counter("rtad_serve_rejected_draining_total"),
		mPanics:    tel.Counter("rtad_serve_panics_total"),
		mBytes:     tel.Counter("rtad_serve_bytes_in_total"),
		mJudgments: tel.Counter("rtad_serve_judgments_total"),
		mQueueMax:  tel.Gauge("rtad_serve_queue_depth_max"),
		mReadSec:   tel.Histogram("rtad_serve_frame_read_seconds", ServeSecondsBuckets),
		mAdmitSec:  tel.Histogram("rtad_serve_admission_seconds", ServeSecondsBuckets),
		mFeedSec:   tel.Histogram("rtad_serve_feed_seconds", ServeSecondsBuckets),
		mWriteSec:  tel.Histogram("rtad_serve_judgment_write_seconds", ServeSecondsBuckets),
		mE2ESec:    tel.Histogram("rtad_serve_chunk_judgment_seconds", ServeSecondsBuckets),
	}
}

// Deploy registers a trained deployment under benchmark/model and promotes
// it active immediately — the bootstrap path for models loaded before
// Serve. The deployment must not be mutated afterwards — every admitted
// session reads it concurrently. For the staged load → canary → promote
// lifecycle, register through Registry() (or the /debug/models admin
// endpoints) instead.
func (s *Server) Deploy(dep *core.Deployment) {
	v, err := s.reg.Register(dep, registry.Meta{Origin: "deploy"})
	if err != nil {
		s.log.Error("serve: deploy rejected", "err", err)
		return
	}
	if err := s.reg.Promote(v.Key(), v.ID()); err != nil {
		s.log.Error("serve: deploy promotion failed", "model", v.Key(), "version", v.ID(), "err", err)
	}
}

// Registry exposes the server's model registry — the handle admin surfaces
// use to load, canary, promote and retire versions while the server runs.
func (s *Server) Registry() *registry.Registry { return s.reg }

func depKey(bench, model string) string { return bench + "/" + model }

// Serve accepts connections on ln until Shutdown (or a fatal listener
// error). It blocks; run it in a goroutine when the caller also handles
// signals. The listener stays open while draining so that late clients get
// an explicit "draining" error frame instead of a connection refusal.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: sessions in flight finish and deliver their
// summaries; new hellos are rejected with ErrDraining while the drain is in
// progress. If the drain outlasts timeout, remaining connections are
// force-closed. The listener closes last, after which Serve returns nil.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	if s.batch != nil {
		// Flush the pending batch now and every later arrival immediately:
		// sessions blocked in a parked inference must progress to their
		// summary frames for the drain to complete.
		s.batch.startDrain()
	}

	drainStart := time.Now()
	done := make(chan struct{})
	go func() { s.sessions.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.log.Warn("serve: drain timeout, force-closing connections", "timeout", timeout)
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cfg.WallTracer.Track("serve", "server").Since("drain", drainStart, nil)

	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connWG.Wait()
	s.pool.Close()
	if s.batch != nil {
		// All sessions are done, so nothing can submit anymore.
		s.batch.close()
	}
}

// track registers a connection for force-close; untrack forgets it.
func (s *Server) track(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// inMsg is one unit of the reader→runner queue: a copied trace chunk, or
// the end-of-stream mark. at stamps the moment the chunk left the socket —
// the start of the end-to-end chunk→last-judgment SLO clock.
type inMsg struct {
	data []byte
	at   time.Time
	eos  bool
}

// handle runs a connection's read side: handshake, admission, then frame
// reading into the session's bounded chunk queue. All post-welcome writes —
// judgments, summary, errors — belong to the session runner, which also
// closes the connection; the split keeps exactly one writer per socket.
func (s *Server) handle(conn net.Conn) {
	s.track(conn)
	defer s.untrack(conn)

	hello, err := s.readHello(conn)
	if err != nil {
		s.refuse(conn, ErrBadHello, err.Error())
		return
	}
	if hello.Proto != Proto {
		s.refuse(conn, ErrProto, fmt.Sprintf("unsupported protocol %q (want %s)", hello.Proto, Proto))
		return
	}
	admitStart := time.Now() // hello parsed; stops when the welcome is written

	// Admission control, under one lock so the live count is exact.
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.mDraining.Inc()
		s.refuse(conn, ErrDraining, "server is draining")
		return
	case s.cfg.MaxSessions > 0 && s.live >= s.cfg.MaxSessions:
		s.mu.Unlock()
		s.mBusy.Inc()
		s.refuse(conn, ErrBusy, fmt.Sprintf("all %d sessions in use", s.cfg.MaxSessions))
		return
	}
	// Acquire pins this session to the key's active version (and carves the
	// canary slice) while s.mu still serialises admissions, so the version
	// a session holds is exactly the newest promotion at its admission
	// instant.
	ver, shadowVer, err := s.reg.Acquire(depKey(hello.Benchmark, hello.Model))
	if err != nil {
		s.mu.Unlock()
		s.refuse(conn, ErrBadHello, fmt.Sprintf("no deployment %s/%s (have: %s)",
			hello.Benchmark, hello.Model, strings.Join(s.reg.ActiveKeys(), ", ")))
		return
	}
	// The live count, its gauge and the drain's wait group all change
	// under the lock: concurrent admissions and session ends cannot leave
	// a stale gauge as the last write, and a Shutdown that starts draining
	// after this point always waits for the session.
	s.live++
	s.mLive.Set(int64(s.live))
	s.sessions.Add(1)
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	s.mu.Unlock()

	s.mTotal.Inc()
	admitted := false
	defer func() {
		if !admitted {
			s.endSession(id, ver, shadowVer)
		}
	}()

	sess, shadow, welcome, err := s.openSession(id, ver, shadowVer, hello)
	if err != nil {
		code := ErrBadHello
		if errors.Is(err, errOpenPanic) {
			code = ErrInternal
		}
		s.refuse(conn, code, err.Error())
		return
	}
	if shadow == nil && shadowVer != nil {
		// The shadow lane failed to open; the client session proceeds
		// unshadowed (openSession already logged why).
		s.reg.Release(shadowVer)
		shadowVer = nil
	}
	if err := s.writeFrame(conn, FrameWelcome, welcome); err != nil {
		conn.Close()
		return
	}
	admitted = true
	s.mAdmitSec.Observe(time.Since(admitStart).Seconds())

	remote := fmt.Sprint(conn.RemoteAddr())
	state := &sessionState{
		id: id, benchmark: hello.Benchmark, model: hello.Model,
		backend: welcome.Backend, remote: remote, started: time.Now(),
		version: ver.ID(),
	}
	if shadowVer != nil {
		state.shadowVersion = shadowVer.ID()
	}
	state.touch()
	s.mu.Lock()
	s.states[id] = state
	s.mu.Unlock()

	log := obs.SessionLogger(s.log, id)
	flight := s.cfg.Flight
	wall := s.cfg.WallTracer.Track("serve", id)
	wall.Since("admission", admitStart, map[string]any{
		obs.SessionKey: id, "benchmark": hello.Benchmark, "model": hello.Model,
		"model_version": ver.ID(),
	})
	log.Info("serve: session open",
		"benchmark", hello.Benchmark, "model", hello.Model,
		"backend", welcome.Backend, "remote", remote,
		"model_version", ver.ID(), "shadow_version", state.shadowVersion)
	flight.Record(id, "open", map[string]any{
		"benchmark": hello.Benchmark, "model": hello.Model,
		"backend": welcome.Backend, "remote": remote,
		"model_version": ver.ID(), "shadow_version": state.shadowVersion,
	})

	// The bounded chunk queue between this reader and the runner. The
	// reader is the only sender and closes it; the runner drains it.
	q := make(chan inMsg, queueDepth)

	r := &runner{srv: s, id: id, conn: conn, sess: sess, q: q,
		log: log, state: state, wall: wall,
		ver: ver, shadowVer: shadowVer, shadow: shadow}
	s.pool.Go(r.run)

	// Reader loop: frames in, chunks queued. Exiting closes q, which is the
	// runner's end-of-input whatever the cause.
	defer close(q)
	buf := make([]byte, 0, 64<<10)
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		readStart := time.Now()
		t, payload, nbuf, err := ReadFrame(conn, buf)
		at := time.Now()
		buf = nbuf
		if err != nil {
			return // disconnect or protocol garbage; runner sees closed q
		}
		s.mReadSec.Observe(at.Sub(readStart).Seconds())
		switch t {
		case FrameChunk:
			s.mBytes.Add(int64(len(payload)))
			state.chunks.Add(1)
			state.traceBytes.Add(int64(len(payload)))
			state.touch()
			flight.Record(id, "chunk", map[string]any{"bytes": len(payload)})
			// Blocks when the queue is full: TCP holds the client until
			// space frees.
			q <- inMsg{data: append([]byte(nil), payload...), at: at}
			s.mQueueMax.Max(int64(len(q)))
		case FrameEOS:
			flight.Record(id, "eos", nil)
			q <- inMsg{eos: true, at: at}
			return
		default:
			// Client protocol violation: drop the session, with the flight
			// recorder's recent history dumped for the post-mortem.
			flight.Record(id, "proto-error", map[string]any{"frame": t.String()})
			log.Error("serve: protocol violation, dropping session", "frame", t.String())
			s.dumpFlight(log, id)
			return
		}
	}
}

// endSession decrements the live count (and its gauge), retires the
// introspection row, releases the session's registry holds (the admitted
// version plus any canary shadow), and marks the flight-recorder ring
// evictable — exactly once per admitted-or-aborted session. Releasing the
// holds is what lets a retired version finally leave the registry once its
// last in-flight session finishes.
func (s *Server) endSession(id string, held ...*registry.Version) {
	s.mu.Lock()
	s.live--
	s.mLive.Set(int64(s.live))
	delete(s.states, id)
	s.mu.Unlock()
	for _, v := range held {
		s.reg.Release(v) // nil-safe
	}
	s.cfg.Flight.End(id)
	s.sessions.Done()
}

// dumpFlight logs the session's flight-recorder ring as one JSON blob —
// the post-mortem attached to every panic, protocol error, and abort.
func (s *Server) dumpFlight(log *slog.Logger, id string) {
	events := s.cfg.Flight.Dump(id)
	if len(events) == 0 {
		return
	}
	blob, err := json.Marshal(events)
	if err != nil {
		return
	}
	log.Error("serve: flight recorder dump", "events", len(events), "ring", json.RawMessage(blob))
}

// openSession opens the trace-replay core session for hello on the
// admitted version's deployment — plus, when the admission fell into the
// canary slice, a shadow session on the candidate version with the
// identical configuration (same backend, gap, stride, attack, calibration
// table, batching wrap), so the two judge exactly the same replayed
// stream. The hello's settings pass through raw: core and the packages
// below it resolve their defaults and reject values outside their bounds,
// and the welcome reports what they resolved. A shadow that fails to open
// is logged and dropped (shadow == nil); it never fails the client
// session.
func (s *Server) openSession(id string, ver, shadowVer *registry.Version, hello *Hello) (sess, shadow *core.Session, welcome *Welcome, err error) {
	dep := ver.Deployment()
	if hello.Window != 0 && hello.Window != dep.Window() {
		return nil, nil, nil, fmt.Errorf("window mismatch: client expects %d, %s/%s judges %d-windows",
			hello.Window, hello.Benchmark, hello.Model, dep.Window())
	}
	opts := []core.Option{
		core.WithConfig(core.PipelineConfig{
			CUs: hello.CUs, Backend: hello.Backend, Stride: hello.Stride,
			Calibration: s.calib,
		}),
		core.WithTraceInput(hello.GapCycles),
	}
	if s.batch != nil {
		opts = append(opts, core.WithEngineWrap(s.batch.wrap))
	}
	if a := hello.Attack; a != nil {
		opts = append(opts, core.WithAttack(core.AttackSpec{
			TriggerBranch: a.TriggerBranch,
			BurstLen:      a.BurstLen,
			Mimicry:       a.Mimicry,
			Seed:          a.Seed,
		}))
	}
	sess, err = s.openCore(id, dep, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if shadowVer != nil {
		shadow, err = s.openCore(id, shadowVer.Deployment(), opts)
		if err != nil {
			s.log.Warn("serve: canary shadow failed to open, session proceeds unshadowed",
				obs.SessionKey, id, "model", ver.Key(), "candidate_version", shadowVer.ID(), "err", err)
			shadow, err = nil, nil
		}
	}
	cfg, gap := sess.Resolved()
	welcome = &Welcome{
		Proto:        Proto,
		SessionID:    id,
		Benchmark:    hello.Benchmark,
		Model:        hello.Model,
		Backend:      cfg.Backend,
		Window:       dep.Window(),
		GapCycles:    gap,
		Stride:       cfg.Stride,
		ModelVersion: ver.ID(),
	}
	return sess, shadow, welcome, nil
}

// errOpenPanic marks an admission that failed because core.Open panicked.
var errOpenPanic = errors.New("session open panic")

// openCore opens one core session with any panic confined to it: a
// deployment that breaks core.Open (an in-process one that never passed
// LoadDeployment's checks) costs its admission an error, not the daemon
// its life. The panic is counted and recorded like a session panic.
func (s *Server) openCore(id string, dep *core.Deployment, opts []core.Option) (sess *core.Session, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			s.cfg.Flight.Record(id, "panic", map[string]any{"stage": "open", "value": fmt.Sprint(p)})
			s.log.Error("serve: session open panic", obs.SessionKey, id, "panic", p)
			sess, err = nil, fmt.Errorf("%w: %v", errOpenPanic, p)
		}
	}()
	return core.Open(core.Deployments{dep}, opts...)
}

// refuse writes one error frame and closes the connection — the pre-session
// exit path (bad hello, busy, draining, a panicking open).
func (s *Server) refuse(conn net.Conn, code, msg string) {
	s.writeFrame(conn, FrameError, &ErrorMsg{Code: code, Msg: msg})
	conn.Close()
}

func (s *Server) readHello(conn net.Conn) (*Hello, error) {
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	t, payload, _, err := ReadFrame(conn, nil)
	if err != nil {
		return nil, fmt.Errorf("reading hello: %w", err)
	}
	if t != FrameHello {
		return nil, fmt.Errorf("expected hello, got %v", t)
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	return &h, nil
}

// writeFrame applies the write deadline and emits one JSON frame.
func (s *Server) writeFrame(conn net.Conn, t FrameType, v any) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return writeJSON(conn, t, v)
}

// runner drives one admitted session on a fleet worker: chunks in,
// judgments out, summary at end-of-stream. It owns every post-welcome write
// and the connection's close.
type runner struct {
	srv   *Server
	id    string
	conn  net.Conn
	sess  *core.Session
	q     <-chan inMsg
	log   *slog.Logger
	state *sessionState
	wall  *obs.WallTrack

	// Registry holds: ver is the version the session was admitted on (its
	// judgments and anomaly counts tally against it); shadowVer is the
	// canary candidate when this admission fell in the canary slice. Both
	// are released by endSession.
	ver       *registry.Version
	shadowVer *registry.Version
	// shadow is the candidate's invisible session over the same trace
	// bytes. Its judgments feed the registry's per-version delta — never
	// the socket — and a shadow failure nils it without touching the
	// client session.
	shadow *core.Session
}

// run executes the session to completion. A panic anywhere in the
// simulation is confined to this session: it is counted, logged (with the
// flight recorder's recent history), reported to the client as an internal
// error, and the server keeps serving.
func (r *runner) run() error {
	s := r.srv
	defer s.endSession(r.id, r.ver, r.shadowVer)
	defer r.conn.Close()
	// The reader blocks sending into a full q; keep draining after exit so
	// it can always make progress to its own close.
	defer func() {
		for range r.q {
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			s.cfg.Flight.Record(r.id, "panic", map[string]any{"value": fmt.Sprint(p)})
			r.log.Error("serve: session panic", "panic", p)
			s.dumpFlight(r.log, r.id)
			r.writeError(ErrInternal, fmt.Sprintf("session panic: %v", p))
		}
	}()

	// The producer brackets tell the batching coordinator when this runner
	// is inside a chunk — the only stretches where it can park a vector.
	// Socket writes and queue waits stay outside so a stalled client never
	// holds a batch open. The shadow session is fed the same bytes inside
	// the same bracket, sequentially after the primary, so a canary's
	// inference rides the same micro-batches as live traffic.
	feed := func(data []byte) error {
		s.batch.producerUp()
		defer s.batch.producerDown()
		if err := r.sess.FeedTrace(data); err != nil {
			return err
		}
		r.feedShadow(data)
		return nil
	}
	var judgBuf []byte
	sawEOS := false
	for msg := range r.q {
		if msg.eos {
			sawEOS = true
			break
		}
		feedStart := time.Now()
		if err := feed(msg.data); err != nil {
			s.cfg.Flight.Record(r.id, "error", map[string]any{"err": err.Error()})
			r.log.Error("serve: feed failed", "err", err)
			s.dumpFlight(r.log, r.id)
			r.writeError(feedErrCode(err), err.Error())
			return fmt.Errorf("serve: %s: %w", r.id, err)
		}
		s.mFeedSec.Observe(time.Since(feedStart).Seconds())
		r.wall.Since("feed", feedStart, map[string]any{obs.SessionKey: r.id, "bytes": len(msg.data)})
		wrote, anoms, err := r.flushJudgments(&judgBuf)
		if err != nil {
			return nil // client gone; nothing left to deliver
		}
		r.collectShadow(int64(wrote), anoms)
		if wrote > 0 {
			// The headline serving SLO: this chunk left the socket at
			// msg.at; its last judgment is on the wire now.
			s.mE2ESec.Observe(time.Since(msg.at).Seconds())
		}
	}
	if !sawEOS {
		// Reader closed the queue without EOS: disconnect or timeout. The
		// session dies with it; there is no one to summarise to.
		s.cfg.Flight.Record(r.id, "abort", nil)
		r.log.Warn("serve: session aborted before eos")
		s.dumpFlight(r.log, r.id)
		return nil
	}
	err := func() error {
		s.batch.producerUp()
		defer s.batch.producerDown()
		drainStart := time.Now()
		defer r.wall.Since("drain", drainStart, map[string]any{obs.SessionKey: r.id})
		if err := r.sess.Drain(); err != nil {
			return err
		}
		r.drainShadow()
		return nil
	}()
	if err != nil {
		s.cfg.Flight.Record(r.id, "error", map[string]any{"err": err.Error()})
		r.log.Error("serve: drain failed", "err", err)
		s.dumpFlight(r.log, r.id)
		r.writeError(ErrInternal, err.Error())
		return fmt.Errorf("serve: %s drain: %w", r.id, err)
	}
	wrote, anoms, err := r.flushJudgments(&judgBuf)
	if err != nil {
		return nil
	}
	r.collectShadow(int64(wrote), anoms)
	sum := r.summary()
	if err := s.writeFrame(r.conn, FrameSummary, sum); err != nil {
		return nil
	}
	s.cfg.Flight.Record(r.id, "summary", map[string]any{
		"judged": sum.Judged, "events": sum.Events, "trace_bytes": sum.TraceBytes,
	})
	r.log.Info("serve: session done",
		"judged", sum.Judged, "events", sum.Events, "trace_bytes", sum.TraceBytes)
	return nil
}

// feedErrCode is the error-frame code for a failed feed: a stream that
// runs the replay clock past core.MaxReplayCycles broke a protocol limit,
// and any other failure is the server's.
func feedErrCode(err error) string {
	if errors.Is(err, core.ErrReplayClockExhausted) {
		return ErrProto
	}
	return ErrInternal
}

// flushJudgments sends every newly delivered judgment, in delivery (time)
// order, and tallies the burst (count and anomalies) against the session's
// registry version. The frames are assembled back to back in buf and
// written with one syscall — a chunk typically yields a burst of judgments,
// and per-frame writes would make the socket the hot path at serving rates.
// The byte stream is identical to writing each frame alone.
func (r *runner) flushJudgments(buf *[]byte) (int, int64, error) {
	res := r.sess.Results()
	if len(res) == 0 {
		return 0, 0, nil
	}
	*buf = (*buf)[:0]
	var anoms int64
	for _, j := range res {
		if j.Rec.Judgment.Anomaly {
			anoms++
		}
		*buf = appendJudgmentFrame(*buf, Judgment{
			Seq:         j.Vector.Seq,
			Done:        int64(j.Rec.Done),
			FinalRetire: int64(j.FinalRetire),
			IRQAt:       int64(j.Rec.IRQAt),
			MarginQ:     j.Rec.Judgment.MarginQ,
			EwmaQ:       j.Rec.Judgment.EwmaQ,
			Anomaly:     j.Rec.Judgment.Anomaly,
		})
	}
	r.conn.SetWriteDeadline(time.Now().Add(r.srv.cfg.WriteTimeout))
	writeStart := time.Now()
	if _, err := r.conn.Write(*buf); err != nil {
		return 0, 0, err
	}
	r.srv.mWriteSec.Observe(time.Since(writeStart).Seconds())
	r.wall.Since("judgment_write", writeStart,
		map[string]any{obs.SessionKey: r.id, "judgments": len(res)})
	r.srv.mJudgments.Add(int64(len(res)))
	r.srv.reg.RecordJudgments(r.ver, int64(len(res)), anoms)
	r.state.judged.Add(int64(len(res)))
	r.state.touch()
	r.srv.cfg.Flight.Record(r.id, "judgments", map[string]any{"count": len(res)})
	return len(res), anoms, nil
}

// feedShadow replays the chunk into the canary shadow session. A shadow
// failure is confined to the shadow: it is logged, flight-recorded, and the
// shadow lane is dropped for the rest of the session — the client stream is
// never touched.
func (r *runner) feedShadow(data []byte) {
	if r.shadow == nil {
		return
	}
	if err := r.shadow.FeedTrace(data); err != nil {
		r.dropShadow("feed", err)
	}
}

// drainShadow finishes the shadow session at end-of-stream (inside the
// same producer bracket as the primary drain).
func (r *runner) drainShadow() {
	if r.shadow == nil {
		return
	}
	if err := r.shadow.Drain(); err != nil {
		r.dropShadow("drain", err)
	}
}

func (r *runner) dropShadow(stage string, err error) {
	r.srv.cfg.Flight.Record(r.id, "shadow-error", map[string]any{"stage": stage, "err": err.Error()})
	r.log.Warn("serve: canary shadow dropped, session continues unshadowed",
		"stage", stage, "candidate_version", r.shadowVer.ID(), "err", err)
	r.shadow = nil
}

// collectShadow drains the shadow session's newly judged vectors into the
// registry's canary tally, paired with the primary burst judged over the
// same bytes (the baseline side of the anomaly-rate delta). Shadow
// judgments end here by construction — nothing on this path writes to the
// connection.
func (r *runner) collectShadow(baseJudged, baseAnoms int64) {
	if r.shadow == nil {
		return
	}
	res := r.shadow.Results()
	if len(res) == 0 && baseJudged == 0 {
		return
	}
	var anoms int64
	for _, j := range res {
		if j.Rec.Judgment.Anomaly {
			anoms++
		}
	}
	r.srv.reg.RecordShadow(r.shadowVer, int64(len(res)), anoms, baseJudged, baseAnoms)
	r.state.shadowJudged.Add(int64(len(res)))
	if len(res) > 0 {
		r.srv.cfg.Flight.Record(r.id, "shadow", map[string]any{
			"count": len(res), "candidate_version": r.shadowVer.ID(),
		})
	}
}

// summary assembles the end-of-stream summary from the drained session.
func (r *runner) summary() *Summary {
	bytes, events, decErrs := r.sess.ReplayStats()
	stats := r.sess.MCMStats()
	sum := &Summary{
		Judged:       int(stats.Accepted),
		Dropped:      stats.Dropped,
		MaxOccupancy: stats.MaxOccupancy,
		TraceBytes:   bytes,
		Events:       events,
		DecodeErrors: decErrs,
		AttackFired:  r.sess.AttackFired(),
	}
	if sum.AttackFired {
		if res, err := r.sess.Summary(); err == nil {
			sum.Detection = &Detection{
				Detected:      res.Detected,
				InjectTimePS:  int64(res.InjectTime),
				LatencyPS:     int64(res.Latency),
				MeanLatencyPS: int64(res.MeanLatency),
				IRQTimePS:     int64(res.IRQTime),
				FirstSeq:      res.First.Vector.Seq,
			}
		}
	}
	return sum
}

func (r *runner) writeError(code, msg string) {
	r.conn.SetWriteDeadline(time.Now().Add(r.srv.cfg.WriteTimeout))
	writeJSON(r.conn, FrameError, &ErrorMsg{Code: code, Msg: msg})
}
