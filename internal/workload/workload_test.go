package workload

import (
	"testing"

	"rtad/internal/cpu"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("suite has %d benchmarks, want 12 (SPEC CINT2006)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"400.perlbench", "471.omnetpp", "483.xalancbmk"} {
		if !seen[name] {
			t.Errorf("missing benchmark %s", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("471.omnetpp"); !ok {
		t.Error("full-name lookup failed")
	}
	p, ok := ByName("omnetpp")
	if !ok || p.Name != "471.omnetpp" {
		t.Error("short-name lookup failed")
	}
	if _, ok := ByName("no-such"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("403.gcc")
	a, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Words) != len(b.Words) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Words), len(b.Words))
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("word %d differs", i)
		}
	}
}

// runBenchmark executes n instructions of profile p and returns the stats.
func runBenchmark(t *testing.T, p Profile, n int64, sink cpu.Sink) cpu.Stats {
	t.Helper()
	prog, err := p.Generate()
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	mode := cpu.ModeBaseline
	if sink != nil {
		mode = cpu.ModeRTAD
	}
	c := cpu.New(prog, cpu.Config{Sink: sink, Mode: mode})
	ran, err := c.Run(n)
	if err != nil {
		t.Fatalf("%s: after %d instructions: %v", p.Name, ran, err)
	}
	if ran != n {
		t.Fatalf("%s: benchmark halted after %d of %d instructions (must run forever)", p.Name, ran, n)
	}
	return c.Stats()
}

func TestAllBenchmarksExecute(t *testing.T) {
	const budget = 600_000
	for _, p := range Profiles() {
		st := runBenchmark(t, p, budget, nil)
		density := float64(st.Branches) / float64(st.Instret)
		if density < 0.05 || density > 0.40 {
			t.Errorf("%s: branch density %.3f outside [0.05, 0.40]", p.Name, density)
		}
		if st.Syscalls == 0 {
			t.Errorf("%s: no syscalls in %d instructions", p.Name, budget)
		}
		if st.Calls == 0 || st.Returns == 0 {
			t.Errorf("%s: calls=%d returns=%d, want both > 0", p.Name, st.Calls, st.Returns)
		}
		if st.Indirects == 0 {
			t.Errorf("%s: no indirect transfers", p.Name)
		}
		// Syscalls must be orders of magnitude rarer than branches.
		if st.Syscalls*50 > st.Branches {
			t.Errorf("%s: syscall rate too high (%d syscalls, %d branches)",
				p.Name, st.Syscalls, st.Branches)
		}
	}
}

func TestBenchmarkCharacterDiffers(t *testing.T) {
	const budget = 300_000
	get := func(name string) cpu.Stats {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		return runBenchmark(t, p, budget, nil)
	}
	omnetpp := get("471.omnetpp")
	hmmer := get("456.hmmer")
	perl := get("400.perlbench")

	dOmnet := float64(omnetpp.Branches) / float64(omnetpp.Instret)
	dHmmer := float64(hmmer.Branches) / float64(hmmer.Instret)
	if dOmnet <= dHmmer*1.5 {
		t.Errorf("omnetpp branch density %.3f not well above hmmer %.3f", dOmnet, dHmmer)
	}
	cPerl := float64(perl.Calls) / float64(perl.Instret)
	cHmmer := float64(hmmer.Calls) / float64(hmmer.Instret)
	if cPerl <= cHmmer {
		t.Errorf("perlbench call density %.4f not above hmmer %.4f", cPerl, cHmmer)
	}
}

func TestBranchEventStreamProperties(t *testing.T) {
	p, _ := ByName("458.sjeng")
	sink := &cpu.CollectSink{TakenOnly: true}
	runBenchmark(t, p, 100_000, sink)
	if len(sink.Events) < 1000 {
		t.Fatalf("only %d taken-branch events", len(sink.Events))
	}
	// Targets must be inside the program image or the kernel entry region.
	prog, _ := p.Generate()
	distinct := map[uint32]bool{}
	for _, ev := range sink.Events {
		if ev.Kind == cpu.KindSyscall {
			if ev.Target < cpu.SyscallBase {
				t.Fatalf("syscall target %#x below SyscallBase", ev.Target)
			}
			continue
		}
		if !prog.Contains(ev.Target) {
			t.Fatalf("branch target %#x outside program", ev.Target)
		}
		distinct[ev.Target] = true
	}
	// A realistic benchmark revisits a moderate set of targets.
	if len(distinct) < 20 {
		t.Errorf("only %d distinct branch targets — too degenerate to model", len(distinct))
	}
	// The target sequence must not be constant (temporal structure exists).
	varies := false
	for i := 1; i < len(sink.Events); i++ {
		if sink.Events[i].Target != sink.Events[0].Target {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("branch target sequence is constant")
	}
}

func TestSyscallNumbersWithinSet(t *testing.T) {
	p, _ := ByName("400.perlbench")
	sink := &cpu.CollectSink{TakenOnly: true}
	runBenchmark(t, p, 2_000_000, sink)
	nums := map[int32]bool{}
	for _, ev := range sink.Events {
		if ev.Kind == cpu.KindSyscall {
			n := cpu.SyscallNumber(ev.Target)
			if n < 1 || n > 31 {
				t.Fatalf("syscall number %d out of range", n)
			}
			nums[n] = true
		}
	}
	if len(nums) == 0 {
		t.Fatal("no syscalls observed")
	}
	if len(nums) > p.SvcsPerRun {
		t.Errorf("%d distinct services, profile allows %d", len(nums), p.SvcsPerRun)
	}
}

func TestGenerateRejectsBadFuncs(t *testing.T) {
	p, _ := ByName("401.bzip2")
	p.Funcs = 12 // not a power of two
	if _, err := p.Generate(); err == nil {
		t.Error("non-power-of-two Funcs accepted")
	}
	p.Funcs = 32
	if _, err := p.Generate(); err == nil {
		t.Error("Funcs > 16 accepted")
	}
}
