// Command rtadd is the RTAD detection daemon: it pre-loads one or more
// trained deployments, listens for rtad-wire sessions, and judges raw PTM
// trace streams from remote clients in real time — the serving shape of
// the paper's always-on monitor, where the monitored SoC is elsewhere and
// only its CoreSight bytes reach the detector.
//
// Usage:
//
//	rtadd -bench 458.sjeng -models lstm
//	rtadd -bench 458.sjeng,400.perlbench -models elm,lstm -addr :7433
//	rtadd -load sjeng-lstm.dep -metrics-addr 127.0.0.1:8080
//
// Deployments come from -load files (saved by rtadsim -save) or are trained
// at startup for every -bench × -models pair. SIGINT/SIGTERM drains
// gracefully: in-flight sessions finish and deliver their summaries while
// new connections receive an explicit "draining" rejection.
//
// Observability: every log line is structured (-log-format text|json,
// -log-level), session-scoped lines carry a session=<id> attribute matching
// the SessionID in the welcome frame, -wall-trace records serving-plane
// spans to a Perfetto JSON file, and -metrics-addr additionally mounts
// /debug/sessions (live session snapshot), /debug/models (model registry
// snapshot + lifecycle verbs) and /debug/flightrecorder (recent
// per-session event rings) next to /metrics and /debug/pprof.
//
// Model lifecycle: every deployment lives in a versioned registry. New
// versions arrive through POST /debug/models/load (or -watch, which polls
// a directory for new/changed .dep files), shadow-judge a slice of live
// traffic as a canary (-canary-fraction, or the canary= parameter), and
// go live atomically via POST /debug/models/promote — in-flight sessions
// finish on the version that welcomed them; new sessions get the new
// weights. Zero downtime, zero rejected frames.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rtad/internal/core"
	"rtad/internal/obs"
	"rtad/internal/registry"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7433", "listen address for rtad-wire sessions")
		metricsAdr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /debug/pprof, /debug/sessions and /debug/flightrecorder on this address")
		bench      = flag.String("bench", "", "comma-separated benchmarks to train deployments for at startup")
		models     = flag.String("models", "lstm", "comma-separated models to train per benchmark: elm,lstm")
		load       = flag.String("load", "", "comma-separated deployment files (rtadsim -save) to serve")

		maxSessions  = flag.Int("max-sessions", 64, "concurrent session cap (excess hellos get an explicit busy rejection; 0 = unlimited)")
		workers      = flag.Int("workers", 0, "fleet width shared by session runners (0 = GOMAXPROCS)")
		readTimeout  = flag.Duration("read-timeout", 0, "max gap between client frames (0 = built-in default)")
		writeTimeout = flag.Duration("write-timeout", 0, "max duration of one response write (0 = built-in default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions before force-closing")

		batchWindow = flag.Duration("batch-window", 0, "micro-batch collection window for cross-session fused inference (0 = unbatched)")

		watchDir       = flag.String("watch", "", "poll this directory for new or changed .dep files and register them as model versions")
		watchInterval  = flag.Duration("watch-interval", 5*time.Second, "poll cadence of -watch")
		canaryFraction = flag.Float64("canary-fraction", 0, "shadow-judge this slice of traffic on versions arriving via -watch before promotion (0 = promote immediately)")

		logFormat = flag.String("log-format", "text", "structured log format: "+obs.LogFormats)
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		wallTrace = flag.String("wall-trace", "", "write a Perfetto JSON wall-clock trace of serving-plane spans to this file at exit")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := obs.NewLogger(os.Stdout, *logFormat, level)
	if err != nil {
		fatal(err)
	}

	tel := obs.NewMetricsOnly()
	flight := obs.NewFlightRecorder(0, 0)
	var wall *obs.WallTracer
	if *wallTrace != "" {
		wall = obs.NewWallTracer()
	}

	srv := serve.New(registry.New(),
		serve.WithMaxSessions(*maxSessions),
		serve.WithWorkers(*workers),
		serve.WithTimeouts(*readTimeout, *writeTimeout),
		serve.WithBatching(*batchWindow, 0),
		serve.WithTelemetry(tel),
		serve.WithLogger(logger),
		serve.WithWallTracer(wall),
		serve.WithFlight(flight),
	)

	var msrv *obs.Server
	if *metricsAdr != "" {
		msrv, err = obs.Serve(*metricsAdr, tel.Reg,
			obs.Route{Pattern: "/debug/sessions", Handler: srv.SessionsHandler()},
			obs.Route{Pattern: "/debug/models", Handler: srv.ModelsHandler()},
			obs.Route{Pattern: "/debug/models/", Handler: srv.ModelsAdminHandler()},
			obs.Route{Pattern: "/debug/flightrecorder", Handler: srv.FlightHandler()},
		)
		if err != nil {
			fatal(err)
		}
		logger.Info("serving metrics", "url", "http://"+msrv.Addr()+"/metrics")
	}

	if err := loadDeployments(srv, logger, *load, *bench, *models); err != nil {
		fatal(err)
	}
	keys := srv.Models()
	if len(keys) == 0 && *watchDir == "" {
		fatal(fmt.Errorf("no deployments: give -bench (train at startup), -load (saved files), or -watch (a model directory)"))
	}

	watchStop := make(chan struct{})
	if *watchDir != "" {
		w := &modelWatcher{
			dir: *watchDir, reg: srv.Registry(), log: logger,
			canaryFraction: *canaryFraction, seen: map[string]time.Time{},
		}
		w.scan() // synchronous first pass so -watch-only daemons serve at startup
		go w.run(*watchInterval, watchStop)
		logger.Info("watching for model versions", "dir", *watchDir,
			"interval", *watchInterval, "canary_fraction", *canaryFraction)
		keys = srv.Models()
	}
	logger.Info("serving deployments", "count", len(keys), "models", strings.Join(keys, ", "))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("listening for rtad-wire sessions", "addr", ln.Addr().String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("received signal, draining", "signal", sig.String(), "timeout", *drainTimeout)
		srv.Shutdown(*drainTimeout)
	}()

	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	close(watchStop)
	// Drain order: sessions first (above), then the introspection endpoint —
	// gracefully, so a /metrics or /debug/sessions scrape racing the drain
	// still completes — and finally the wall trace, which must include the
	// drain spans themselves.
	if msrv != nil {
		if err := msrv.Close(); err != nil {
			logger.Warn("metrics endpoint shutdown", "err", err)
		}
	}
	if wall != nil {
		if err := writeWallTrace(*wallTrace, wall); err != nil {
			fatal(err)
		}
		logger.Info("wrote wall trace", "file", *wallTrace, "events", wall.Events())
	}
	logger.Info("drained, bye")
}

func writeWallTrace(path string, wall *obs.WallTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wall.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadDeployments registers -load files first, then trains every
// -bench × -models pair not already covered.
func loadDeployments(srv *serve.Server, logger *slog.Logger, loads, benches, models string) error {
	for _, path := range splitList(loads) {
		dep, err := core.LoadDeploymentFile(path)
		if err != nil {
			return err
		}
		srv.Deploy(dep)
		logger.Info("loaded deployment", "kind", dep.Kind.String(), "bench", dep.Profile.Name, "file", path)
	}
	for _, b := range splitList(benches) {
		p, ok := workload.ByName(b)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (rtadsim lists the suite)", b)
		}
		for _, m := range splitList(models) {
			var kind core.ModelKind
			switch m {
			case "elm":
				kind = core.ModelELM
			case "lstm":
				kind = core.ModelLSTM
			default:
				return fmt.Errorf("unknown model %q (want elm or lstm)", m)
			}
			logger.Info("training detector", "model", m, "bench", p.Name)
			dep, err := core.Train(core.DefaultTrainConfig(p, kind))
			if err != nil {
				return err
			}
			srv.Deploy(dep)
		}
	}
	return nil
}

// modelWatcher polls a directory for .dep files and feeds new or changed
// ones into the registry — the hands-off half of the retrain-and-promote
// loop: a trainer drops a fresh file, the daemon picks it up, canaries it
// on live traffic (when -canary-fraction > 0 and the key already serves),
// or promotes it straight away. Re-scans are idempotent: an unchanged file
// is skipped by modtime, and a rewritten file with identical weights
// dedupes on the registry's content fingerprint.
type modelWatcher struct {
	dir            string
	reg            *registry.Registry
	log            *slog.Logger
	canaryFraction float64
	seen           map[string]time.Time // path -> modtime at last load
}

func (w *modelWatcher) run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.scan()
		}
	}
}

func (w *modelWatcher) scan() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.log.Warn("model watch: scan failed", "dir", w.dir, "err", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".dep" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(w.dir, e.Name())
		if mt, ok := w.seen[path]; ok && mt.Equal(info.ModTime()) {
			continue
		}
		w.seen[path] = info.ModTime()
		w.load(path)
	}
}

func (w *modelWatcher) load(path string) {
	dep, err := core.LoadDeploymentFile(path)
	if err != nil {
		w.log.Warn("model watch: load failed", "file", path, "err", err)
		return
	}
	v, err := w.reg.Register(dep, registry.Meta{Origin: "watch:" + path, LoadedAt: time.Now()})
	if err != nil {
		w.log.Warn("model watch: register failed", "file", path, "err", err)
		return
	}
	if a, ok := w.reg.Active(v.Key()); ok && a.ID() == v.ID() {
		return // unchanged content, already serving
	}
	// Canary when a fraction is configured and there is live traffic to
	// shadow (an active version); otherwise promote immediately — which is
	// also the bootstrap path for a key's first version.
	if w.canaryFraction > 0 {
		if err := w.reg.StartCanary(v.Key(), v.ID(), w.canaryFraction); err == nil {
			w.log.Info("model watch: canary started", "model", v.Key(), "version", v.ID(),
				"file", path, "fraction", w.canaryFraction)
			return
		}
	}
	if err := w.reg.Promote(v.Key(), v.ID()); err != nil {
		w.log.Warn("model watch: promote failed", "model", v.Key(), "version", v.ID(), "err", err)
		return
	}
	w.log.Info("model watch: promoted", "model", v.Key(), "version", v.ID(), "file", path)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
