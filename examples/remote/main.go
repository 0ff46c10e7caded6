// Example remote shows the serving path end to end: an rtadd-style server
// is started in-process on a loopback port, a client captures a victim's
// raw PTM trace (the attack burst spliced in by the server, exactly like
// the in-process experiments), streams it over rtad-wire in small chunks,
// and prints judgments as the remote inference engine produces them.
//
// Run with:
//
//	go run ./examples/remote
//
// Point -addr at a running rtadd daemon to skip the in-process server.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"rtad/internal/core"
	"rtad/internal/serve"
	"rtad/internal/workload"
)

func main() {
	var (
		addr  = flag.String("addr", "", "connect to this rtadd server instead of starting one in-process")
		burst = flag.Int("burst", 16384, "attack burst length (0 = no attack)")
		chunk = flag.Int("chunk", 4096, "trace bytes per wire chunk")
	)
	flag.Parse()
	if *chunk < 1 {
		log.Fatalf("-chunk must be at least 1, got %d", *chunk)
	}

	const bench = "458.sjeng"
	p, ok := workload.ByName(bench)
	if !ok {
		log.Fatal("benchmark not found")
	}

	target := *addr
	if target == "" {
		target = startServer(p)
	}

	// Capture the victim's branch-broadcast PTM stream, as a CoreSight
	// probe would see it.
	stream, err := core.CaptureTrace(p, 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d trace bytes from %s\n", len(stream), bench)

	hello := serve.Hello{Benchmark: bench, Model: "lstm"}
	if *burst > 0 {
		// The server splices the burst into the replayed stream after 1000
		// taken transfers — same semantics as core.Session.Inject.
		hello.Attack = &serve.AttackSpec{TriggerBranch: 1000, BurstLen: *burst, Seed: 7}
	}

	anomalies := 0
	cl, err := serve.Dial(target, hello, func(j serve.Judgment) {
		if j.Anomaly {
			anomalies++
			if anomalies <= 3 {
				fmt.Printf("  anomaly: vector %d, latency %d ps\n", j.Seq, j.Latency())
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	w := cl.Welcome()
	fmt.Printf("session %s: %s/%s backend=%s window=%d gap=%d model_version=%d\n",
		w.SessionID, w.Benchmark, w.Model, w.Backend, w.Window, w.GapCycles, cl.ModelVersion())

	for off := 0; off < len(stream); off += *chunk {
		end := off + *chunk
		if end > len(stream) {
			end = len(stream)
		}
		if err := cl.Send(stream[off:end]); err != nil {
			log.Fatal(err)
		}
	}
	sum, err := cl.Finish()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsummary: %d judged, %d dropped, %d events from %d bytes\n",
		sum.Judged, sum.Dropped, sum.Events, sum.TraceBytes)
	fmt.Printf("%d anomalous judgments\n", anomalies)
	if d := sum.Detection; d != nil {
		fmt.Printf("attack injected at %d ps; first judgment latency %d ps; detected=%v\n",
			d.InjectTimePS, d.LatencyPS, d.Detected)
	}
}

// startServer trains a small LSTM deployment and serves it on a loopback
// port, returning the address.
func startServer(p workload.Profile) string {
	cfg := core.DefaultTrainConfig(p, core.ModelLSTM)
	cfg.TrainInstr = 1_200_000 // small budget keeps the example quick
	fmt.Printf("training LSTM on %s...\n", p.Name)
	dep, err := core.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(nil)
	srv.Deploy(dep)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("in-process rtadd on %s\n", ln.Addr())
	return ln.Addr().String()
}
