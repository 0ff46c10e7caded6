// Package workload generates the SPEC CINT2006-like benchmark programs the
// RTAD evaluation runs on the host CPU. Each of the twelve benchmarks is a
// real executable program over the host ISA — functions, loops, data-
// dependent conditional branches, indirect dispatch through a function-
// pointer table, and paced supervisor calls — whose *dynamic* control-flow
// statistics (branch density, call density, syscall interval, burstiness)
// are configured per benchmark to mirror the published character of the
// suite. The paper's figures depend only on these dynamic statistics, which
// is what makes this substitution sound (see DESIGN.md §6).
package workload

import "fmt"

// Profile parameterises one synthetic benchmark. Generation is fully
// deterministic from the profile (including Seed), so every run of the
// evaluation sees identical binaries.
type Profile struct {
	Name string
	Seed int64

	// Static structure.
	Funcs         int    // dispatched functions (power of two for masking)
	Leaves        int    // leaf helper functions
	BlocksPerFunc [2]int // min,max basic blocks per function

	// Dynamic behaviour.
	BlockALU   [2]int  // min,max straight-line ops per block (sets branch density)
	Burst      bool    // bimodal block sizes: tight branchy stretches (omnetpp-like)
	MemFrac    float64 // fraction of straight-line slots that are loads/stores
	LoopFrac   float64 // fraction of functions with an inner counted loop
	LoopIters  [2]int  // min,max iterations of inner loops
	CallFrac   float64 // per-block probability of a direct leaf call
	TakenBias  float64 // probability a conditional branch is taken
	SvcsPerRun int     // distinct syscall services this benchmark uses

	// SyscallInterval is the number of main-loop iterations between
	// supervisor calls. One iteration executes on the order of a few
	// hundred instructions, so an interval of 1000 is roughly one syscall
	// per few hundred thousand instructions — SPEC-like sparsity.
	SyscallInterval int32
}

// profiles lists the twelve benchmarks of SPEC CINT2006 with dynamic
// parameters chosen to reflect each program's published character:
// perlbench/gcc/xalancbmk are call- and indirect-heavy; hmmer and h264ref
// are long-basic-block loop nests with few branches; omnetpp is the
// branch-dense, bursty discrete-event simulator whose trace pressure
// overflows the MCM FIFO in the paper; mcf is memory bound.
var profiles = []Profile{
	{Name: "400.perlbench", Seed: 400, Funcs: 16, Leaves: 6, BlocksPerFunc: [2]int{4, 9},
		BlockALU: [2]int{2, 6}, MemFrac: 0.30, LoopFrac: 0.4, LoopIters: [2]int{2, 6},
		CallFrac: 0.30, TakenBias: 0.55, SvcsPerRun: 8, SyscallInterval: 900},
	{Name: "401.bzip2", Seed: 401, Funcs: 8, Leaves: 3, BlocksPerFunc: [2]int{3, 7},
		BlockALU: [2]int{4, 10}, MemFrac: 0.35, LoopFrac: 0.7, LoopIters: [2]int{4, 12},
		CallFrac: 0.10, TakenBias: 0.62, SvcsPerRun: 4, SyscallInterval: 1600},
	{Name: "403.gcc", Seed: 403, Funcs: 16, Leaves: 8, BlocksPerFunc: [2]int{4, 10},
		BlockALU: [2]int{2, 6}, MemFrac: 0.28, LoopFrac: 0.45, LoopIters: [2]int{2, 5},
		CallFrac: 0.25, TakenBias: 0.58, SvcsPerRun: 8, SyscallInterval: 1100},
	{Name: "429.mcf", Seed: 429, Funcs: 8, Leaves: 2, BlocksPerFunc: [2]int{3, 6},
		BlockALU: [2]int{3, 8}, MemFrac: 0.45, LoopFrac: 0.6, LoopIters: [2]int{3, 9},
		CallFrac: 0.08, TakenBias: 0.6, SvcsPerRun: 3, SyscallInterval: 2000},
	{Name: "445.gobmk", Seed: 445, Funcs: 16, Leaves: 6, BlocksPerFunc: [2]int{4, 8},
		BlockALU: [2]int{2, 7}, MemFrac: 0.25, LoopFrac: 0.5, LoopIters: [2]int{2, 6},
		CallFrac: 0.22, TakenBias: 0.52, SvcsPerRun: 6, SyscallInterval: 1300},
	{Name: "456.hmmer", Seed: 456, Funcs: 4, Leaves: 2, BlocksPerFunc: [2]int{3, 5},
		BlockALU: [2]int{10, 22}, MemFrac: 0.35, LoopFrac: 0.9, LoopIters: [2]int{8, 20},
		CallFrac: 0.05, TakenBias: 0.7, SvcsPerRun: 3, SyscallInterval: 1200},
	{Name: "458.sjeng", Seed: 458, Funcs: 16, Leaves: 5, BlocksPerFunc: [2]int{4, 8},
		BlockALU: [2]int{2, 6}, MemFrac: 0.22, LoopFrac: 0.4, LoopIters: [2]int{2, 5},
		CallFrac: 0.20, TakenBias: 0.5, SvcsPerRun: 5, SyscallInterval: 1400},
	{Name: "462.libquantum", Seed: 462, Funcs: 4, Leaves: 2, BlocksPerFunc: [2]int{3, 5},
		BlockALU: [2]int{6, 14}, MemFrac: 0.30, LoopFrac: 0.85, LoopIters: [2]int{6, 16},
		CallFrac: 0.07, TakenBias: 0.68, SvcsPerRun: 3, SyscallInterval: 1100},
	{Name: "464.h264ref", Seed: 464, Funcs: 8, Leaves: 3, BlocksPerFunc: [2]int{3, 6},
		BlockALU: [2]int{9, 20}, MemFrac: 0.35, LoopFrac: 0.85, LoopIters: [2]int{6, 16},
		CallFrac: 0.10, TakenBias: 0.66, SvcsPerRun: 4, SyscallInterval: 1200},
	{Name: "471.omnetpp", Seed: 471, Funcs: 16, Leaves: 8, BlocksPerFunc: [2]int{5, 10},
		BlockALU: [2]int{1, 2}, Burst: true, MemFrac: 0.25, LoopFrac: 0.35, LoopIters: [2]int{2, 4},
		CallFrac: 0.30, TakenBias: 0.5, SvcsPerRun: 8, SyscallInterval: 1000},
	{Name: "473.astar", Seed: 473, Funcs: 8, Leaves: 3, BlocksPerFunc: [2]int{3, 7},
		BlockALU: [2]int{3, 9}, MemFrac: 0.38, LoopFrac: 0.6, LoopIters: [2]int{3, 8},
		CallFrac: 0.12, TakenBias: 0.57, SvcsPerRun: 4, SyscallInterval: 1800},
	{Name: "483.xalancbmk", Seed: 483, Funcs: 16, Leaves: 8, BlocksPerFunc: [2]int{4, 9},
		BlockALU: [2]int{1, 5}, MemFrac: 0.28, LoopFrac: 0.4, LoopIters: [2]int{2, 5},
		CallFrac: 0.32, TakenBias: 0.53, SvcsPerRun: 8, SyscallInterval: 1000},
}

// Profiles returns the twelve SPEC CINT2006-like benchmark profiles in suite
// order. The slice is a copy; callers may modify it.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ByName looks up a profile by its full name ("471.omnetpp") or short name
// ("omnetpp").
func ByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name || shortName(p.Name) == name {
			return p, true
		}
	}
	return Profile{}, false
}

func shortName(full string) string {
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			return full[i+1:]
		}
	}
	return full
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s{funcs=%d blockALU=%v svcInt=%d}", p.Name, p.Funcs, p.BlockALU, p.SyscallInterval)
}
