// Example streaming shows the incremental detection API: a core.Session is
// stepped through the victim in slices, judgments are consumed live as the
// inference engine produces them, and the attack is armed mid-run — the
// capabilities a whole-run Session.Detect hides.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"rtad/internal/core"
	"rtad/internal/workload"
)

func main() {
	p, ok := workload.ByName("458.sjeng")
	if !ok {
		log.Fatal("benchmark not found")
	}

	// Train the LSTM branch model on a normal run (a small budget keeps
	// the example quick; real deployments use DefaultTrainConfig as-is).
	cfg := core.DefaultTrainConfig(p, core.ModelLSTM)
	cfg.TrainInstr = 1_200_000
	dep, err := core.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained LSTM on %s: %d windows, IGM table %d entries\n",
		p.Name, dep.TrainWindows, dep.Mapper.Size())

	s, err := core.Open(core.Deployments{dep},
		core.WithConfig(core.PipelineConfig{CUs: 5, Stride: 512}))
	if err != nil {
		log.Fatal(err)
	}

	// Stream the victim in 200k-instruction slices, consuming judgments as
	// they complete. Midway, arm the attack: a burst of legitimate branch
	// events replayed out of context, firing 1000 taken transfers later.
	const (
		slices   = 10
		perSlice = 200_000
	)
	total := 0
	for i := 0; i < slices; i++ {
		if i == slices/2 {
			spec := core.AttackSpec{TriggerBranch: 1000, BurstLen: 16384, Seed: 7}
			if err := s.Inject(spec); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("-- slice %d: attack armed\n", i)
		}
		if _, err := s.Step(perSlice); err != nil {
			log.Fatal(err)
		}
		batch := s.Results()
		total += len(batch)
		fmt.Printf("slice %d: %7d instrs, %2d new judgments (%d total), session time %v\n",
			i, s.Instret(), len(batch), total, s.Now())
	}

	// Drain flushes the trace chain and delivers the inference tail.
	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	tail := s.Results()
	fmt.Printf("drain: %d tail judgments\n", len(tail))

	res, err := s.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nattack injected at %v\n", res.InjectTime)
	fmt.Printf("first post-attack judgment after %v\n", res.Latency)
	if res.Detected {
		fmt.Printf("anomaly IRQ at %v (%v after injection)\n",
			res.IRQTime, res.IRQTime-res.InjectTime)
	} else {
		fmt.Println("no anomaly IRQ within the run")
	}
	for _, st := range s.Stages() {
		fmt.Printf("stage %-5s max depth %4d, overflows %d\n",
			st.Name, st.MaxDepth, st.Overflows)
	}
}
