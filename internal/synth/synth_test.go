package synth

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rtad/internal/gpu"
	"rtad/internal/ml"
	"rtad/internal/trim"
)

// Published Table I rows (LUTs, FFs, BRAMs, gates).
var paperTableI = map[string][4]int{
	"Trace Analyzer":         {11962, 350, 0, 12375},
	"P2S":                    {686, 1074, 0, 14363},
	"Input Vector Generator": {890, 1067, 0, 10430},
	"Internal FIFO":          {13, 33, 10, 262},
	"ML-MIAOW Driver":        {489, 265, 0, 5971},
	"Control FSM":            {1609, 1698, 0, 16977},
	"Interrupt Manager":      {42, 91, 0, 927},
	"ML-MIAOW (5 CUs)":       {183715, 76375, 140, 1865989},
}

func within(got, want int, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(float64(got-want)) <= tol*float64(want)
}

func mlMIAOWKeep(t *testing.T) *gpu.CoverageSet {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mk := func(vocab, window, n int) [][]int32 {
		out := make([][]int32, n)
		cur := int32(0)
		for i := range out {
			w := make([]int32, window)
			for j := range w {
				w[j] = cur
				cur = (cur + int32(rng.Intn(3))) % int32(vocab)
			}
			out[i] = w
		}
		return out
	}
	ecfg := ml.DefaultELMConfig()
	elm, err := ml.TrainELM(ecfg, mk(ecfg.Vocab, ecfg.Window, 400))
	if err != nil {
		t.Fatal(err)
	}
	lcfg := ml.DefaultLSTMConfig()
	lcfg.Epochs = 1
	lstm, err := ml.TrainLSTM(lcfg, mk(lcfg.Vocab, lcfg.Window, 150))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trim.Run(trim.StandardWorkloads(elm, lstm, 6))
	if err != nil {
		t.Fatal(err)
	}
	return &res.Coverage
}

func TestTableIRowsMatchPaper(t *testing.T) {
	table := BuildTableI(mlMIAOWKeep(t))
	if len(table.Rows) != len(paperTableI) {
		t.Fatalf("%d rows, want %d", len(table.Rows), len(paperTableI))
	}
	for _, r := range table.Rows {
		want, ok := paperTableI[r.Submodule]
		if !ok {
			t.Errorf("unexpected row %q", r.Submodule)
			continue
		}
		// FPGA resources are the calibrated layer: hold rows to ±25%.
		if !within(r.Area.LUTs, want[0], 0.25) {
			t.Errorf("%s LUTs = %d, paper %d", r.Submodule, r.Area.LUTs, want[0])
		}
		if !within(r.Area.FFs, want[1], 0.25) {
			t.Errorf("%s FFs = %d, paper %d", r.Submodule, r.Area.FFs, want[1])
		}
		if r.Area.BRAMs != want[2] {
			t.Errorf("%s BRAMs = %d, paper %d", r.Submodule, r.Area.BRAMs, want[2])
		}
		// Gate counts are the coarse layer: ±50%.
		if !within(r.Area.Gates, want[3], 0.5) {
			t.Errorf("%s gates = %d, paper %d", r.Submodule, r.Area.Gates, want[3])
		}
	}
	// Totals (paper: 199,406 / 80,953 / 150 / 1,927,294).
	if !within(table.Total.LUTs, 199406, 0.10) {
		t.Errorf("total LUTs = %d, paper 199406", table.Total.LUTs)
	}
	if !within(table.Total.FFs, 80953, 0.10) {
		t.Errorf("total FFs = %d, paper 80953", table.Total.FFs)
	}
	if table.Total.BRAMs != 150 {
		t.Errorf("total BRAMs = %d, paper 150", table.Total.BRAMs)
	}
	if !within(table.Total.Gates, 1927294, 0.10) {
		t.Errorf("total gates = %d, paper 1927294", table.Total.Gates)
	}
}

func TestUtilisationMatchesPaper(t *testing.T) {
	table := BuildTableI(mlMIAOWKeep(t))
	lut, ff, bram := table.Utilisation()
	if math.Abs(lut-0.912) > 0.09 {
		t.Errorf("LUT utilisation %.3f, paper 0.912", lut)
	}
	if math.Abs(ff-0.185) > 0.05 {
		t.Errorf("FF utilisation %.3f, paper 0.185", ff)
	}
	if math.Abs(bram-0.275) > 0.05 {
		t.Errorf("BRAM utilisation %.3f, paper 0.275", bram)
	}
	// The whole point of trimming: five full-MIAOW CUs would NOT fit.
	fullTable := BuildTableI(nil)
	if fullTable.Total.LUTs < ZC706LUTs {
		t.Errorf("five untrimmed MIAOW CUs (%d LUTs) should exceed the ZC706 (%d)",
			fullTable.Total.LUTs, ZC706LUTs)
	}
}

func TestEstimateAccountsEveryPrimitive(t *testing.T) {
	n := &Netlist{Name: "probe"}
	n.Add(Reg, 10, 2)
	n.Add(Adder, 8, 1)
	n.Add(Mux, 4, 2)
	n.Add(Cmp, 10, 1)
	n.Add(Logic, 100, 1)
	n.Add(RAM, BRAMBits, 3)
	n.Add(LUTRAM, 40, 2)
	a := n.Estimate()
	if a.FFs != 20 {
		t.Errorf("FFs = %d, want 20", a.FFs)
	}
	if a.BRAMs != 3 {
		t.Errorf("BRAMs = %d, want 3", a.BRAMs)
	}
	wantLUT := int(8.0 + 4.0 + 4.0 + 100.0 + 80.0/40)
	if a.LUTs != wantLUT {
		t.Errorf("LUTs = %d, want %d", a.LUTs, wantLUT)
	}
	if a.Gates <= 0 {
		t.Error("no gates estimated")
	}
	// RAM bits contribute no gates (SRAM macros).
	n2 := &Netlist{Name: "ram-only"}
	n2.Add(RAM, BRAMBits, 5)
	if g := n2.Estimate().Gates; g != 0 {
		t.Errorf("RAM-only netlist has %d gates, want 0", g)
	}
}

func TestTableIString(t *testing.T) {
	s := BuildTableI(mlMIAOWKeep(t)).String()
	for _, frag := range []string{"Trace Analyzer", "ML-MIAOW (5 CUs)", "Total", "utilisation"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered table missing %q", frag)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := Reg; k <= LUTRAM; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
