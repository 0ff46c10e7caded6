package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

// Serve workloads run an in-process rtadd on loopback and drive it from
// serveConns client connections in this process, each streaming its own
// captured 458.sjeng PTM trace slice, one session per pass over the slice.
// A run alternates two phases serveRounds times, 3/5 and 2/5 of each round:
//
//   - fixed rate: every connection sends one chunk per period, open loop,
//     the connections' schedules offset by period/serveConns. A chunk
//     completes when the client has received the cumulative judgment count
//     the in-process reference reaches after the same chunk, and its
//     latency is timed from its due time.
//   - saturating: every connection sends its chunks back to back,
//     throttled only by the server's backpressure.
//
// The host's speed drifts over seconds, so each phase's figures are taken
// across the whole run rather than from one stretch of it.
const (
	serveConns   = 2
	serveWorkers = 2
	serveRounds  = 4
	serveBench   = "458.sjeng"
	serveBackend = kernels.BackendNativeCalibrated
	// missMS is the latency charged to a chunk whose session failed: a
	// failed chunk misses any latency limit.
	missMS = 60_000
	// satWindow is the width of the saturating phase's rate windows.
	satWindow = 500 * time.Millisecond
)

// windows cuts a saturating phase into equal wall-clock windows. Its rates
// are medians over the windows, so a burst of host interference that slows
// one window does not move them.
type windows struct {
	start time.Time
	width time.Duration
	n     int
}

func newWindows(start time.Time, budget time.Duration) *windows {
	if budget < satWindow {
		return &windows{start: start, width: budget, n: 1}
	}
	return &windows{start: start, width: satWindow, n: int(budget / satWindow)}
}

// index is t's window, or -1 when t falls outside every window.
func (w *windows) index(t time.Time) int {
	if t.Before(w.start) {
		return -1
	}
	if i := int(t.Sub(w.start) / w.width); i < w.n {
		return i
	}
	return -1
}

// serveSpec is one serve workload's traffic and server configuration.
type serveSpec struct {
	stride     int   // 0 = the deployment default
	gap        int64 // replay pacing; 0 = the server default
	chunk      int   // trace bytes per chunk
	traceInstr int64 // victim instructions per captured slice
	batching   bool
	// period is each connection's chunk period in the fixed-rate phase:
	// together the connections offer about a quarter of the workload's
	// saturated capacity on a 2-vCPU host (see design.json), low enough
	// that the latency reflects service time rather than host noise.
	period time.Duration
}

var (
	sparseSpec = serveSpec{chunk: 12 << 10, traceInstr: 4_000_000, period: 6 * time.Millisecond}
	denseSpec  = serveSpec{stride: 8, gap: 100_000, chunk: 1024, traceInstr: 400_000,
		batching: true, period: 9 * time.Millisecond}
)

func runServeSparse(cfg runConfig) (*result, error)       { return runServe(cfg, sparseSpec) }
func runServeDenseBatched(cfg runConfig) (*result, error) { return runServe(cfg, denseSpec) }

func (sp serveSpec) hello() serve.Hello {
	return serve.Hello{Benchmark: serveBench, Model: "lstm", Backend: serveBackend,
		Stride: sp.stride, GapCycles: sp.gap}
}

func (sp serveSpec) options(tel *obs.Telemetry, wall *obs.WallTracer) []serve.Option {
	opts := []serve.Option{serve.WithWorkers(serveWorkers)}
	if sp.batching {
		opts = append(opts, serve.WithBatching(time.Millisecond, serve.DefaultBatchMax))
	}
	if tel != nil {
		opts = append(opts, serve.WithTelemetry(tel), serve.WithWallTracer(wall))
	}
	return opts
}

// clientTrace is one connection's input: its captured slice cut into
// chunks, and the reference the served stream must reproduce.
type clientTrace struct {
	stream []byte
	chunks [][]byte
	instr  int64
	// cum[k] is the reference's cumulative judgment count after chunk k.
	cum []int
	ref []serve.Judgment
	// credit[n] is the trace bytes known to be judged once the client holds
	// n judgments: the chunks up to the last one whose judgments are then
	// all in. tail is the rest, judged when the session finishes.
	credit []float64
	tail   float64
}

// server is a running in-process rtadd.
type server struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startServer(dep *core.Deployment, sp serveSpec, tel *obs.Telemetry, wall *obs.WallTracer) (*server, error) {
	srv := serve.New(nil, sp.options(tel, wall)...)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	// One empty session pays the server's one-time calibration pass for
	// the session shape, as the first real session would otherwise.
	c, err := serve.Dial(s.addr, sp.hello(), nil)
	if err != nil {
		s.stop()
		return nil, err
	}
	if _, err := c.Finish(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) stop() error {
	s.srv.Shutdown(time.Minute)
	return <-s.done
}

// serveSetup trains the detector, captures each connection's trace slice
// (the seed picks where the slices start) and starts the server, repeated
// setupRepeats times; it keeps the last repetition.
func serveSetup(cfg runConfig, sp serveSpec) (*core.Deployment, []*clientTrace, *server, setupSummary, error) {
	var (
		reps   []setupTimes
		dep    *core.Deployment
		traces []*clientTrace
		srv    *server
	)
	p, _ := workload.ByName(serveBench)
	rng := rand.New(rand.NewSource(cfg.seed))
	skip := int64(rng.Intn(16)) * 250_000
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // as in detectSetup: peak RSS is one set-up's peak
		var t setupTimes
		t0 := processCPU()
		d, err := core.Train(core.DefaultTrainConfig(p, core.ModelLSTM))
		if err != nil {
			return nil, nil, nil, setupSummary{}, err
		}
		t.train = processCPU() - t0
		t0 = processCPU()
		prog, err := p.Generate()
		if err != nil {
			return nil, nil, nil, setupSummary{}, err
		}
		var trs []*clientTrace
		for c := 0; c < serveConns; c++ {
			stream, err := captureTrace(prog, skip+int64(c)*sp.traceInstr, sp.traceInstr)
			if err != nil {
				return nil, nil, nil, setupSummary{}, err
			}
			trs = append(trs, &clientTrace{stream: stream, chunks: split(stream, sp.chunk), instr: sp.traceInstr})
		}
		t.capture = processCPU() - t0
		t0 = processCPU()
		s, err := startServer(d, sp, nil, nil)
		if err != nil {
			return nil, nil, nil, setupSummary{}, err
		}
		t.server = processCPU() - t0
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, nil, setupSummary{}, err
			}
		}
		dep, traces, srv = d, trs, s
		reps = append(reps, t)
	}
	return dep, traces, srv, summariseSetup(reps), nil
}

func split(stream []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(stream); off += n {
		end := off + n
		if end > len(stream) {
			end = len(stream)
		}
		out = append(out, stream[off:end])
	}
	return out
}

// replay is an in-process trace-replay session over one client trace, cut
// at the same chunk boundaries the client sends. It provides the reference
// (and, traced, the per-layer isolation of the same work).
type replay struct {
	judged   []core.Judged
	cum      []int
	openTime time.Duration
	feedWall time.Duration // FeedTrace and Drain
	events   int64
	bytes    int64
}

func runReplay(dep *core.Deployment, sp serveSpec, tr *clientTrace, extra ...core.Option) (*replay, error) {
	opts := append([]core.Option{
		core.WithConfig(core.PipelineConfig{Backend: serveBackend, Stride: sp.stride}),
		core.WithTraceInput(sp.gap),
	}, extra...)
	rp := &replay{}
	t0 := time.Now()
	s, err := core.Open(core.Deployments{dep}, opts...)
	if err != nil {
		return nil, err
	}
	rp.openTime = time.Since(t0)
	for _, ch := range tr.chunks {
		t := time.Now()
		if err := s.FeedTrace(ch); err != nil {
			return nil, err
		}
		rp.feedWall += time.Since(t)
		rp.judged = append(rp.judged, s.Results()...)
		rp.cum = append(rp.cum, len(rp.judged))
	}
	t := time.Now()
	if err := s.Drain(); err != nil {
		return nil, err
	}
	rp.feedWall += time.Since(t)
	rp.judged = append(rp.judged, s.Results()...)
	rp.bytes, rp.events, _ = s.ReplayStats()
	return rp, nil
}

// reference fills each trace's expected judgment stream.
func reference(dep *core.Deployment, sp serveSpec, traces []*clientTrace) error {
	for _, tr := range traces {
		rp, err := runReplay(dep, sp, tr)
		if err != nil {
			return err
		}
		tr.cum = rp.cum
		tr.ref = tr.ref[:0]
		for _, j := range rp.judged {
			tr.ref = append(tr.ref, serve.Judgment{
				Seq: j.Vector.Seq, Done: int64(j.Rec.Done), FinalRetire: int64(j.FinalRetire),
				IRQAt: int64(j.Rec.IRQAt), MarginQ: j.Rec.Judgment.MarginQ,
				EwmaQ: j.Rec.Judgment.EwmaQ, Anomaly: j.Rec.Judgment.Anomaly,
			})
		}
		if len(tr.ref) == 0 {
			return fmt.Errorf("reference judged nothing; capture a longer slice")
		}
		tr.credit, tr.tail = make([]float64, len(tr.ref)+1), 0
		prev := 0
		for k, n := range tr.cum {
			tr.tail += float64(len(tr.chunks[k]))
			if n > prev {
				tr.credit[n], tr.tail = tr.tail, 0
				prev = n
			}
		}
	}
	return nil
}

// sessionOut is one client session's outcome.
type sessionOut struct {
	id        string
	dial      time.Duration
	latMS     []float64 // per judging chunk, from its due time (fixed rate)
	lagMS     []float64 // send start minus due time (fixed rate)
	blockedMS []float64 // Send call duration
	// Judgments received and trace bytes judged in each saturating-phase
	// window.
	winJudged, winBytes []float64
	chunks              int
	judged              int
	bytes               int64
	instr               int64
	events              int64
	failed              bool
	problem             string
}

// runSession streams one pass over tr on a new session. period 0 sends
// back to back (saturating), counting judgments and bytes into win's
// windows. Otherwise chunks are due on the connection's grid origin +
// n·period, the session's first chunk on the first grid slot after its
// handshake: the grid spans the connection's sessions, and the
// connections' grids interleave, so how their chunks meet at the server
// does not change from run to run.
func runSession(addr string, hello serve.Hello, tr *clientTrace, origin time.Time, period time.Duration, win *windows, track *obs.WallTrack) sessionOut {
	out := sessionOut{chunks: len(tr.chunks)}
	fail := func(format string, args ...any) sessionOut {
		out.failed = true
		out.problem = fmt.Sprintf(format, args...)
		return out
	}
	got := make([]serve.Judgment, 0, len(tr.ref))
	var arrived []time.Time
	if period > 0 {
		arrived = make([]time.Time, 0, len(tr.ref))
	} else {
		out.winJudged, out.winBytes = make([]float64, win.n), make([]float64, win.n)
	}
	onJudgment := func(j serve.Judgment) {
		got = append(got, j)
		if period > 0 {
			arrived = append(arrived, time.Now())
		} else if i := win.index(time.Now()); i >= 0 {
			out.winJudged[i]++
			if n := len(got); n < len(tr.credit) {
				out.winBytes[i] += tr.credit[n]
			}
		}
	}
	t0 := time.Now()
	c, err := serve.Dial(addr, hello, onJudgment, serve.WithOpTimeout(30*time.Second))
	if err != nil {
		return fail("dial: %v", err)
	}
	out.dial = time.Since(t0)
	out.id = c.SessionID()
	track.Span("dial", t0, t0.Add(out.dial), map[string]any{"session": out.id})
	var first int64
	if period > 0 {
		first = int64(time.Since(origin)/period) + 1
	}
	due := make([]time.Time, len(tr.chunks))
	for k, ch := range tr.chunks {
		due[k] = origin.Add(time.Duration(first+int64(k)) * period)
		if period > 0 {
			time.Sleep(time.Until(due[k]))
		}
		ts := time.Now()
		if period > 0 {
			out.lagMS = append(out.lagMS, ms(ts.Sub(due[k])))
		} else {
			due[k] = ts
		}
		if err := c.Send(ch); err != nil {
			c.Close()
			return fail("send chunk %d: %v", k, err)
		}
		te := time.Now()
		out.blockedMS = append(out.blockedMS, ms(te.Sub(ts)))
		track.Span("send", ts, te, map[string]any{"chunk": fmt.Sprintf("%s/%d", out.id, k), "session": out.id})
	}
	sum, err := c.Finish()
	if err != nil {
		return fail("finish: %v", err)
	}
	if period == 0 {
		if i := win.index(time.Now()); i >= 0 {
			out.winBytes[i] += tr.tail
		}
	}
	// Untimed from here: the output checks.
	if len(got) != len(tr.ref) {
		return fail("session %s: %d judgments, reference %d", out.id, len(got), len(tr.ref))
	}
	for i := range got {
		if got[i] != tr.ref[i] {
			return fail("session %s: judgment %d differs from the reference", out.id, i)
		}
	}
	if sum.Judged != len(tr.ref) || sum.TraceBytes != int64(len(tr.stream)) || sum.DecodeErrors != 0 {
		return fail("session %s: summary %+v disagrees with the reference", out.id, *sum)
	}
	out.judged, out.bytes, out.instr, out.events = len(got), sum.TraceBytes, tr.instr, sum.Events
	if period > 0 {
		prev := 0
		for k, n := range tr.cum {
			if n == prev {
				continue // the chunk completed no judgment: no sample
			}
			prev = n
			done := arrived[n-1]
			out.latMS = append(out.latMS, ms(done.Sub(due[k])))
			track.Span("chunk", due[k], done, map[string]any{"chunk": fmt.Sprintf("%s/%d", out.id, k), "session": out.id})
		}
	}
	return out
}

// phaseOut aggregates one phase, or several merged, over every connection.
type phaseOut struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time: server, clients and runtime
	sessions []sessionOut
	// Saturating phases: each window's judgments and trace bytes per wall
	// second.
	winJudged, winBytes []float64
}

// merge adds b's sessions, times and windows to a.
func merge(a, b phaseOut) phaseOut {
	a.wall += b.wall
	a.cpu += b.cpu
	a.sessions = append(a.sessions, b.sessions...)
	a.winJudged = append(a.winJudged, b.winJudged...)
	a.winBytes = append(a.winBytes, b.winBytes...)
	return a
}

// runPhase runs whole sessions on every connection until budget has passed
// (at least one session each).
func runPhase(addr string, sp serveSpec, traces []*clientTrace, period, budget time.Duration, wall *obs.WallTracer) phaseOut {
	outs := make([][]sessionOut, len(traces))
	start, cpu0 := time.Now(), processCPU()
	var win *windows
	if period == 0 {
		win = newWindows(start, budget)
	}
	var wg sync.WaitGroup
	for i, tr := range traces {
		i, tr := i, tr
		track := wall.Track("bench", fmt.Sprintf("client-%d", i))
		origin := start.Add(time.Duration(i) * period / time.Duration(len(traces)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(outs[i]) == 0 || time.Since(start) < budget {
				outs[i] = append(outs[i], runSession(addr, sp.hello(), tr, origin, period, win, track))
			}
		}()
	}
	wg.Wait()
	ph := phaseOut{wall: time.Since(start), cpu: processCPU() - cpu0}
	for _, o := range outs {
		ph.sessions = append(ph.sessions, o...)
	}
	if win != nil {
		ph.winJudged, ph.winBytes = make([]float64, win.n), make([]float64, win.n)
		for _, s := range ph.sessions {
			if s.failed {
				continue
			}
			for i := range ph.winJudged {
				ph.winJudged[i] += s.winJudged[i] / win.width.Seconds()
				ph.winBytes[i] += s.winBytes[i] / win.width.Seconds()
			}
		}
	}
	return ph
}

// account adds a phase's operations and failures to the result: every
// chunk is an operation, and a failed session fails all of its chunks.
func (ph phaseOut) account(r *result) {
	for _, s := range ph.sessions {
		r.attempted += int64(s.chunks)
		if s.failed {
			r.failed += int64(s.chunks)
			r.fail("%s", s.problem)
		}
	}
}

// latencies returns the phase's chunk latencies, failed chunks charged
// missMS.
func (ph phaseOut) latencies() []float64 {
	var xs []float64
	for _, s := range ph.sessions {
		if s.failed {
			for i := 0; i < s.chunks; i++ {
				xs = append(xs, missMS)
			}
			continue
		}
		xs = append(xs, s.latMS...)
	}
	return xs
}

// instrPerCPUSecond is the victim instructions the phase's served slices
// cover per second of process CPU time. The server, its clients and the Go
// runtime share the process, so this is the whole loopback system's cost
// per unit of work.
func (ph phaseOut) instrPerCPUSecond() float64 {
	var instr float64
	for _, s := range ph.sessions {
		if !s.failed {
			instr += float64(s.instr)
		}
	}
	return instr / ph.cpu.Seconds()
}

// rates reports the saturating phase's judgments received and trace bytes
// judged per wall-clock second, what the clients get from the server, as
// the median over the phase's windows.
func (ph phaseOut) rates() (judgments, bytes float64) {
	return median(ph.winJudged), median(ph.winBytes)
}

// sessionLatency is the median over the phase's sessions of each session's
// p50 chunk latency; a failed session counts as missMS.
func (ph phaseOut) sessionLatency() float64 {
	var xs []float64
	for _, s := range ph.sessions {
		switch {
		case s.failed:
			xs = append(xs, missMS)
		case len(s.latMS) > 0:
			xs = append(xs, median(s.latMS))
		}
	}
	return median(xs)
}

func (ph phaseOut) collect(f func(sessionOut) []float64) []float64 {
	var xs []float64
	for _, s := range ph.sessions {
		xs = append(xs, f(s)...)
	}
	return xs
}

// runServe sets up, checks and measures one serve workload.
func runServe(cfg runConfig, sp serveSpec) (*result, error) {
	dep, traces, srv, st, err := serveSetup(cfg, sp)
	if err != nil {
		return nil, err
	}
	if err := reference(dep, sp, traces); err != nil {
		srv.stop()
		return nil, err
	}
	r := newResult()
	if !cfg.trace {
		var fixed, sat phaseOut
		for i := 0; i < serveRounds; i++ {
			fixed = merge(fixed, runPhase(srv.addr, sp, traces, sp.period, cfg.seconds*3/5/serveRounds, nil))
			sat = merge(sat, runPhase(srv.addr, sp, traces, 0, cfg.seconds*2/5/serveRounds, nil))
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
		fixed.account(r)
		sat.account(r)
		lat := fixed.latencies()
		jps, bps := sat.rates()
		st.note(r)
		r.set("setup_s", st.total, "s")
		r.set("sim_minstr_per_s", sat.instrPerCPUSecond()/1e6, "Minstr/s")
		r.set("judgments_per_s", jps, "1/s")
		r.set("ingest_mb_per_s", bps/1e6, "MB/s")
		r.set("chunk_latency_p50_ms", fixed.sessionLatency(), "ms")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		offered := float64(serveConns) * float64(len(traces[0].chunks[0])) / sp.period.Seconds() / 1e6
		r.note("fixed rate: %d connections x 1 chunk per %v (%.2f MB/s offered); %d chunk-latency samples, %d sessions",
			serveConns, sp.period, offered, len(lat), len(fixed.sessions))
		r.note("saturating: %d sessions in %.2f s wall, %.2f s process CPU", len(sat.sessions),
			sat.wall.Seconds(), sat.cpu.Seconds())
		r.note("saturating windows (%v each), judgments/s: %.0f", satWindow, sat.winJudged)
		r.note("chunk latency over all %d samples: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (p90 and p99 are not bounded: see design.json)",
			len(lat), quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99))
		return r, nil
	}

	// Traced run: the untraced half first, then the traced half against a
	// fresh server carrying the same wall tracer as the clients.
	plainFixed := runPhase(srv.addr, sp, traces, sp.period, cfg.seconds/4, nil)
	plainSat := runPhase(srv.addr, sp, traces, 0, cfg.seconds/4, nil)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	tel := obs.NewMetricsOnly()
	wall := obs.NewWallTracer()
	tsrv, err := startServer(dep, sp, tel, wall)
	if err != nil {
		return nil, err
	}
	fixed := runPhase(tsrv.addr, sp, traces, sp.period, cfg.seconds/4, wall)
	sat := runPhase(tsrv.addr, sp, traces, 0, cfg.seconds-3*(cfg.seconds/4), wall)
	if err := tsrv.stop(); err != nil {
		return nil, err
	}
	for _, ph := range []phaseOut{plainFixed, plainSat, fixed, sat} {
		ph.account(r)
	}

	// Isolation on the same inputs: a traced in-process replay of each
	// client trace, and the PTM decoder alone over its bytes.
	iso := obs.NewMetricsOnly()
	clk := &inferClock{track: wall.Track("bench", "replay")}
	var (
		replayWall   time.Duration
		replayBytes  int64
		replayEvents int64
		victimInstr  float64
		opens        []float64
		decodeNS     float64
	)
	for i, tr := range traces {
		clk.id = fmt.Sprintf("replay-%d", i)
		rp, err := runReplay(dep, sp, tr, core.WithTelemetry(iso), core.WithEngineWrap(clk.wrap))
		if err != nil {
			return nil, err
		}
		victimInstr += float64(iso.Reg.Gauge("rtad_cpu_instret").Value())
		opens = append(opens, ms(rp.openTime))
		replayWall += rp.feedWall
		replayBytes += rp.bytes
		replayEvents += rp.events
		decodeNS += decodeIsolation(tr.stream) * float64(len(tr.stream))
	}
	// A few more opens (over one chunk each) steady the core.Open median.
	for i := 0; i < 5; i++ {
		rp, err := runReplay(dep, sp, &clientTrace{chunks: traces[0].chunks[:1]})
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(rp.openTime))
	}
	decodePerByte := decodeNS / float64(replayBytes)
	chainNS := float64(replayWall.Nanoseconds()) - float64(clk.busy.Nanoseconds()) - decodeNS
	chainPerBranch := chainNS / float64(replayEvents)
	inferPerWindow := float64(clk.busy.Nanoseconds()) / float64(clk.windows)

	// The traced phases' work, from the sessions' summaries. Each replayed
	// trace stands for the sessions served over it.
	var servedBytes, servedEvents, servedWindows, served float64
	for _, ph := range []phaseOut{fixed, sat} {
		for _, s := range ph.sessions {
			if !s.failed {
				servedBytes += float64(s.bytes)
				servedEvents += float64(s.events)
				servedWindows += float64(s.judged)
				served++
			}
		}
	}
	scale := served / float64(len(traces))

	// The server hands its telemetry bundle to no session, so the victim-CPU
	// gauge is read from the replays, which open the same trace-input
	// sessions. A session fed from a trace must not run the victim CPU, so
	// a retired instruction is a failed check, and the CPU's per-instruction
	// cost and branch count are 0.
	cpuInstr := scale * victimInstr
	r.set("cpu.instr", cpuInstr, "count")
	if cpuInstr > 0 {
		r.fail("a trace-input session retired %.0f victim instructions", cpuInstr)
	}
	r.set("cpu.ns_per_instr", 0, "ns")
	r.set("cpu.branches", 0, "count")
	r.set("pipeline.ns_per_branch", chainPerBranch, "ns")
	reportChainCounters(r, iso, scale)
	r.set("ptm.decode_ns_per_byte", decodePerByte, "ns")
	reportInference(r, inferPerWindow, scale*float64(clk.calls), scale*float64(clk.windows))
	r.set("core.open_ms", median(opens), "ms")

	h := func(name string, q float64) float64 {
		return histMS(tel.Reg.Histogram(name, serve.ServeSecondsBuckets), q)
	}
	r.set("serve.dial_ms_p50", median(append(fixed.collect(dialMS), sat.collect(dialMS)...)), "ms")
	r.set("serve.admission_ms_p50", h("rtad_serve_admission_seconds", 0.5), "ms")
	r.set("serve.read_ms_p99", h("rtad_serve_frame_read_seconds", 0.99), "ms")
	r.set("serve.feed_ms_p50", h("rtad_serve_feed_seconds", 0.5), "ms")
	r.set("serve.feed_ms_p99", h("rtad_serve_feed_seconds", 0.99), "ms")
	r.set("serve.write_ms_p99", h("rtad_serve_judgment_write_seconds", 0.99), "ms")
	r.set("serve.chunk_judgment_ms_p99", h("rtad_serve_chunk_judgment_seconds", 0.99), "ms")
	r.set("serve.queue_depth_max", float64(tel.Reg.Gauge("rtad_serve_queue_depth_max").Value()), "count")
	reportBatch(r, tel)
	r.set("client.chunk_latency_p50_ms", quantile(fixed.latencies(), 0.50), "ms")
	r.set("client.chunk_latency_p99_ms", quantile(fixed.latencies(), 0.99), "ms")
	r.set("client.lag_ms_p99", quantile(fixed.collect(func(s sessionOut) []float64 { return s.lagMS }), 0.99), "ms")
	r.set("client.send_blocked_ms_p99", quantile(fixed.collect(func(s sessionOut) []float64 { return s.blockedMS }), 0.99), "ms")
	st.report(r)

	// Reconciliation against the server's own spans of session work:
	// chunk feeds, judgment writes and admissions. Inference is the
	// server's fused-batch time when batching is on, else the replay's
	// per-window cost times the windows served.
	sum := func(name string) time.Duration {
		return time.Duration(tel.Reg.Histogram(name, serve.ServeSecondsBuckets).Sum() * float64(time.Second))
	}
	kernelsTime := time.Duration(inferPerWindow * servedWindows)
	if sp.batching {
		kernelsTime = sum("rtad_serve_infer_batch_seconds")
	}
	servePlane := sum("rtad_serve_judgment_write_seconds") + sum("rtad_serve_admission_seconds")
	r.set("cpu.self_share", 0, "ratio") // no victim CPU, checked above
	layerShares(r, sum("rtad_serve_feed_seconds")+servePlane, "server feed, write and admission spans", map[string]time.Duration{
		"ptm_decode": time.Duration(decodePerByte * servedBytes),
		"pipeline":   time.Duration(chainPerBranch * servedEvents),
		"kernels":    kernelsTime,
		"serve":      servePlane,
	})
	plainJPS, _ := plainSat.rates()
	tracedJPS, _ := sat.rates()
	r.set("trace_overhead_share", 1-tracedJPS/plainJPS, "ratio")
	r.set("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	path, err := writeTrace(wall, cfg)
	if err != nil {
		return nil, err
	}
	r.note("wall trace: %s (%d events)", path, wall.Events())
	return r, nil
}

func dialMS(s sessionOut) []float64 {
	if s.failed {
		return nil
	}
	return []float64{ms(s.dial)}
}

// histMS is a seconds histogram's q-quantile in milliseconds (0 when
// nothing was observed).
func histMS(h *obs.Histogram, q float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	return 1000 * h.Quantile(q)
}

// reportBatch reports the batching coordinator's counters (all zero when
// tel is nil or the server runs unbatched).
func reportBatch(r *result, tel *obs.Telemetry) {
	if tel == nil {
		tel = obs.NewMetricsOnly()
	}
	size := tel.Reg.Histogram("rtad_serve_batch_size", serve.BatchSizeBuckets)
	mean := 0.0
	if n := size.Count(); n > 0 {
		mean = size.Sum() / float64(n)
	}
	r.set("batch.size_mean", mean, "count")
	r.set("batch.rows", counter(tel, "rtad_serve_batch_rows_total"), "count")
	infer := tel.Reg.Histogram("rtad_serve_infer_batch_seconds", serve.ServeSecondsBuckets)
	r.set("batch.infer_ms_p50", histMS(infer, 0.5), "ms")
	r.set("batch.flush_starve", counter(tel, "rtad_serve_batch_flush_starve_total"), "count")
	r.set("batch.flush_window", counter(tel, "rtad_serve_batch_flush_window_total"), "count")
	r.set("batch.flush_full", counter(tel, "rtad_serve_batch_flush_full_total"), "count")
}
