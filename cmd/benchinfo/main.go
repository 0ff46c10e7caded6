// Command benchinfo characterises the SPEC CINT2006-like workload suite:
// it executes every benchmark for a fixed budget and prints the dynamic
// statistics that drive the evaluation — instruction mix, branch/call/
// syscall densities, trace bandwidth — so changes to the generators are
// visible at a glance.
//
// Usage:
//
//	benchinfo
//	benchinfo -instr 5000000
package main

import (
	"flag"
	"fmt"
	"os"

	"rtad/internal/cpu"
	"rtad/internal/ptm"
	"rtad/internal/workload"
)

func main() {
	instr := flag.Int64("instr", 2_000_000, "instruction budget per benchmark")
	flag.Parse()

	fmt.Printf("%-16s %8s %8s %8s %9s %10s %10s %9s\n",
		"benchmark", "CPI", "branch%", "taken%", "call%", "instr/svc", "indirect%", "B/branch")
	for _, p := range workload.Profiles() {
		prog, err := p.Generate()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := ptm.NewEncoder(ptm.Config{BranchBroadcast: true})
		var encBuf []byte
		var traceBytes int64
		var taken int64
		sink := cpu.SinkFunc(func(ev cpu.BranchEvent) int64 {
			if ev.Taken {
				taken++
			}
			encBuf = enc.EncodeInto(encBuf[:0], ev)
			traceBytes += int64(len(encBuf))
			return 0
		})
		c := cpu.New(prog, cpu.Config{Mode: cpu.ModeRTAD, Sink: sink})
		if _, err := c.Run(*instr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := c.Stats()
		perSvc := int64(-1)
		if st.Syscalls > 0 {
			perSvc = st.Instret / st.Syscalls
		}
		fmt.Printf("%-16s %8.2f %7.1f%% %7.1f%% %8.2f%% %10d %9.1f%% %9.2f\n",
			p.Name,
			float64(st.Cycles)/float64(st.Instret),
			100*float64(st.Branches)/float64(st.Instret),
			100*float64(taken)/float64(st.Branches),
			100*float64(st.Calls)/float64(st.Instret),
			perSvc,
			100*float64(st.Indirects)/float64(st.Branches),
			float64(traceBytes)/float64(st.Branches))
	}
}
