// Command loadgen hammers a running rtadd daemon with many concurrent
// rtad-wire sessions and measures the serving plane from the client side:
// per-judgment turnaround latency (p50/p90/p99) and aggregate judgment
// throughput.
//
//	loadgen -clients 48          # rtadd on its default address, under its default -max-sessions 64
//	loadgen -addr 127.0.0.1:7433 -metrics-addr 127.0.0.1:9465 -clients 64 -probes 8
//
// The fleet splits into two roles, the standard load-test shape. The first
// -probes clients are closed-loop latency probes: after each chunk they wait
// for the next judgment before sending more, and the sample is the wall time
// from the chunk write to that judgment's arrival — queueing plus batching
// plus inference as the client experiences it. Every other client streams
// its chunks open-loop, throttled only by the server's per-session queue
// backpressure, which keeps the server's workers saturated with in-flight
// chunks the way a real always-on probe population would. All sessions use
// the same explicit -stride (denser than the LSTM default) so inference
// dominates the host work.
//
// With -metrics-addr, loadgen scrapes the daemon's /metrics after the pass
// and prints the server-side chunk→judgment p50/p99 next to its own
// numbers. The recorded serving benchmark is perfbench's serve workloads
// (see EXPERIMENTS.md); loadgen is the tool for poking a live daemon.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtad/internal/core"
	"rtad/internal/obs"
	"rtad/internal/prof"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7433", "rtadd address")
		bench      = flag.String("bench", "458.sjeng", "victim benchmark: the trace source, and the deployment every session requests")
		backend    = flag.String("backend", "native-calibrated", "inference backend every session requests")
		clients    = flag.Int("clients", 64, "concurrent rtad-wire sessions")
		probes     = flag.Int("probes", 64, "closed-loop latency probes among the clients; the rest stream open-loop to keep the server saturated")
		stride     = flag.Int("stride", 16, "judgment stride requested in every hello (0 = deployment default)")
		gap        = flag.Int64("gap", 100_000, "replay pacing in simulated CPU cycles per branch; large gaps drain the MCM FIFO between vectors so every strided vector is judged instead of dropped (0 = the default)")
		chunk      = flag.Int("chunk", 4096, "trace bytes per closed-loop send")
		traceInstr = flag.Int64("trace-instr", 200_000, "victim instructions captured into the trace each client streams")
		profile    = flag.String("cpuprofile", "", "write a CPU profile of the load pass to this file")
		metricsAdr = flag.String("metrics-addr", "", "scrape this rtadd metrics address after the pass for the server-side SLO snapshot")
	)
	flag.Parse()
	ps, err := prof.Start(*profile, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer ps.Stop()
	if err := run(*addr, *bench, *backend, *clients, *probes, *stride, *gap, *chunk, *traceInstr, *metricsAdr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(ps, 1)
	}
}

func run(addr, bench, backend string, clients, probes, stride int, gap int64, chunk int,
	traceInstr int64, metricsAddr string) error {

	p, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	if clients < 1 {
		return fmt.Errorf("-clients must be at least 1, got %d", clients)
	}
	if chunk < 1 {
		return fmt.Errorf("-chunk must be at least 1, got %d", chunk)
	}
	if probes > clients {
		probes = clients
	}
	fmt.Printf("capturing %s trace (%d instructions)...\n", bench, traceInstr)
	stream, err := core.CaptureTrace(p, traceInstr)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d bytes\n", len(stream))

	st, err := pass(addr, bench, backend, stride, gap, chunk, clients, probes, stream)
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		if snap, ok := scrapeServeSLO("http://" + metricsAddr + "/metrics"); ok {
			st.serverSLO, st.hasSLO = snap, true
		} else {
			fmt.Fprintf(os.Stderr, "warning: no %s histogram at %s\n", serveSLOMetric, metricsAddr)
		}
	}
	printPass(st)
	return nil
}

// passStats aggregates one load pass.
type passStats struct {
	wall       time.Duration
	cpu        time.Duration // process user+system CPU consumed by the pass
	judged     int64
	throughput float64 // judgments per wall-clock second
	latP50     float64 // microseconds
	latP90     float64
	latP99     float64
	latMax     float64
	samples    int

	sess0     string                // client 0's server-minted SessionID, for log/trace correlation
	serverSLO obs.HistogramSnapshot // scraped rtad_serve_chunk_judgment_seconds
	hasSLO    bool
}

// serveSLOMetric is the end-to-end serving SLO histogram loadgen scrapes:
// wall time from a chunk's arrival at the server to its last judgment
// hitting the socket.
const serveSLOMetric = "rtad_serve_chunk_judgment_seconds"

// scrapeServeSLO pulls /metrics and reconstructs the end-to-end SLO
// histogram — the server-side counterpart of the client-measured
// turnaround latency.
func scrapeServeSLO(url string) (obs.HistogramSnapshot, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return obs.HistogramSnapshot{}, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return obs.HistogramSnapshot{}, false
	}
	return obs.ParsePrometheusHistogram(string(body), serveSLOMetric)
}

// pass runs the client fleet against addr and aggregates latency and
// throughput. Clients below probes are closed-loop latency probes; the rest
// stream open-loop.
func pass(addr, bench, backend string, stride int, gap int64, chunk, clients, probes int, stream []byte) (*passStats, error) {
	type clientOut struct {
		lat    []float64
		judged int64
		sess   string
		err    error
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]

			var armed atomic.Bool
			gotJ := make(chan time.Time, 1)
			onJudgment := func(serve.Judgment) {
				o.judged++
				if armed.CompareAndSwap(true, false) {
					select {
					case gotJ <- time.Now():
					default:
					}
				}
			}
			c, err := serve.Dial(addr, serve.Hello{
				Benchmark: bench, Model: "lstm", Backend: backend,
				Stride: stride, GapCycles: gap,
			}, onJudgment)
			if err != nil {
				o.err = err
				return
			}
			o.sess = c.SessionID()
			for off := 0; off < len(stream); off += chunk {
				end := off + chunk
				if end > len(stream) {
					end = len(stream)
				}
				if i >= probes {
					// Open-loop: stream flat out; the server's per-session
					// queue backpressure is the only throttle.
					if err := c.Send(stream[off:end]); err != nil {
						o.err = err
						return
					}
					continue
				}
				if end == len(stream) {
					// The tail chunk may hold less than one stride of
					// branches; Finish drains whatever it produces.
					if err := c.Send(stream[off:]); err != nil {
						o.err = err
					}
					break
				}
				armed.Store(true)
				t0 := time.Now()
				if err := c.Send(stream[off:end]); err != nil {
					o.err = err
					return
				}
				select {
				case t1 := <-gotJ:
					o.lat = append(o.lat, float64(t1.Sub(t0))/float64(time.Microsecond))
				case <-time.After(30 * time.Second):
					armed.Store(false) // a sparse chunk may judge nothing; move on
				}
			}
			if o.err != nil {
				return
			}
			if _, err := c.Finish(); err != nil {
				o.err = err
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	st := &passStats{wall: wall, cpu: processCPU() - cpu0, sess0: outs[0].sess}
	var lat []float64
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("client %d: %w", i, outs[i].err)
		}
		st.judged += outs[i].judged
		lat = append(lat, outs[i].lat...)
	}
	if st.judged == 0 {
		return nil, fmt.Errorf("no judgments; lengthen -trace-instr or lower -stride")
	}
	st.throughput = float64(st.judged) / wall.Seconds()
	sort.Float64s(lat)
	st.samples = len(lat)
	if n := len(lat); n > 0 {
		st.latP50, st.latP90, st.latP99 = quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)
		st.latMax = lat[n-1]
	}
	return st, nil
}

// processCPU returns the process's cumulative user+system CPU time; pass
// deltas separate the clients' own work from idle in the wall-clock
// numbers.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func printPass(st *passStats) {
	fmt.Printf("\npass: %d judgments in %v (%.0f judgments/s, cpu %v = %.0f%% busy)\n",
		st.judged, st.wall.Round(time.Millisecond), st.throughput,
		st.cpu.Round(time.Millisecond), 100*st.cpu.Seconds()/st.wall.Seconds())
	fmt.Printf("  turnaround latency (µs, %d samples): p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
		st.samples, st.latP50, st.latP90, st.latP99, st.latMax)
	if st.hasSLO {
		// Server-side counterpart from the scraped SLO histogram: chunk
		// arrival to last judgment on the wire, without the client's
		// network and scheduling share.
		fmt.Printf("  server chunk→judgment (µs, %d chunks): p50 %.0f  p99 %.0f\n",
			st.serverSLO.Count, st.serverSLO.Quantile(0.50)*1e6, st.serverSLO.Quantile(0.99)*1e6)
	}
	if st.sess0 != "" {
		fmt.Printf("  session id (client 0): %s\n", st.sess0)
	}
}
