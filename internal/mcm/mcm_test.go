package mcm

import (
	"testing"

	"rtad/internal/igm"
	"rtad/internal/kernels"
	"rtad/internal/sim"
)

// fakeEngine is a deterministic Engine with a fixed service cost.
type fakeEngine struct {
	window    int
	gpuCycles int64
	anomalyAt map[int64]bool // by call index
	calls     int64
	seen      [][]int32
}

func (f *fakeEngine) Name() string { return "fake" }
func (f *fakeEngine) Window() int  { return f.window }
func (f *fakeEngine) Infer(w []int32) (kernels.Judgment, int64, error) {
	f.seen = append(f.seen, append([]int32(nil), w...))
	j := kernels.Judgment{MarginQ: int32(f.calls)}
	if f.anomalyAt[f.calls] {
		j.Anomaly = true
	}
	f.calls++
	return j, f.gpuCycles, nil
}
func (f *fakeEngine) InferBatch(ws [][]int32) ([]kernels.Judgment, []int64, error) {
	return kernels.InferLoop(f, ws)
}

func vec(seq int64, at sim.Time, classes ...int32) igm.Vector {
	return igm.Vector{Seq: seq, At: at, Classes: classes}
}

func TestSingleVectorTimeline(t *testing.T) {
	// The service is read 1 + TX of (3 words + 2 control writes) at 6
	// fabric cycles per single-beat write = 31 cycles (248 ns), the GPU
	// cycles at 20 ns, then RX of 3 result words at 6 cycles each
	// (144 ns). The vector starts on the first fabric edge (8 ns) at or
	// after its arrival, and the RX engine's first read waits for the
	// first edge after the GPU finishes.
	for _, tc := range []struct {
		name          string
		at            sim.Time
		gpuCycles     int64
		started, done sim.Time
	}{
		// 1000 + 248 + 2000 + 144.
		{"on fabric edges", 1000 * sim.Nanosecond, 100, 1000 * sim.Nanosecond, 3392 * sim.Nanosecond},
		// Arrival 3 ns past an edge starts at 1008; the GPU ends at
		// 1008 + 248 + 2020 = 3276, 4 ns past an edge; 3280 + 144.
		{"off fabric edges", 1003 * sim.Nanosecond, 101, 1008 * sim.Nanosecond, 3424 * sim.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{window: 3, gpuCycles: tc.gpuCycles}
			m, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			rec, ok, err := m.Push(vec(0, tc.at, 1, 2, 3))
			if err != nil || !ok {
				t.Fatal(err, ok)
			}
			if rec.Started != tc.started {
				t.Errorf("Started = %v, want %v", rec.Started, tc.started)
			}
			if rec.Done != tc.done {
				t.Errorf("Done = %v, want %v", rec.Done, tc.done)
			}
			if rec.IRQAt != 0 {
				t.Error("IRQ raised without anomaly")
			}
		})
	}
}

func TestAnomalyRaisesIRQ(t *testing.T) {
	eng := &fakeEngine{window: 2, gpuCycles: 10, anomalyAt: map[int64]bool{0: true}}
	m, _ := New(Config{Engine: eng})
	rec, ok, err := m.Push(vec(0, 0, 1, 2))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if rec.IRQAt == 0 || rec.IRQAt <= rec.Done {
		t.Errorf("IRQ time %v not after Done %v", rec.IRQAt, rec.Done)
	}
	if m.Stats().Anomalies != 1 {
		t.Error("anomaly not counted")
	}
}

func TestQueueingDelaysBursts(t *testing.T) {
	eng := &fakeEngine{window: 1, gpuCycles: 1000} // 20 us service
	m, _ := New(Config{Engine: eng, FIFODepth: 16})
	// Three vectors arriving back-to-back must serialise.
	var recs []Record
	for i := int64(0); i < 3; i++ {
		r, ok, err := m.Push(vec(i, sim.Time(i)*sim.Microsecond, 5))
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		recs = append(recs, r)
	}
	if recs[1].Started < recs[0].Done || recs[2].Started < recs[1].Done {
		t.Error("engine overlapped two inferences")
	}
	wait2 := recs[2].Started - recs[2].Arrived
	wait0 := recs[0].Started - recs[0].Arrived
	if wait2 <= wait0 {
		t.Error("queueing wait did not grow during burst")
	}
}

func TestFIFOOverflowDropsVectors(t *testing.T) {
	eng := &fakeEngine{window: 1, gpuCycles: 50_000} // 1 ms service
	m, _ := New(Config{Engine: eng, FIFODepth: 2})
	var accepted, dropped int
	for i := int64(0); i < 10; i++ {
		_, ok, err := m.Push(vec(i, sim.Time(i)*sim.Microsecond, 1))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no drops despite overloaded engine and tiny FIFO")
	}
	st := m.Stats()
	if st.Dropped != int64(dropped) || st.Accepted != int64(accepted) {
		t.Errorf("stats %+v inconsistent with %d/%d", st, accepted, dropped)
	}
	if st.MaxOccupancy > 2 {
		t.Errorf("occupancy %d exceeded FIFO depth", st.MaxOccupancy)
	}
	// Dropped vectors never reach the engine.
	if eng.calls != int64(accepted) {
		t.Errorf("engine saw %d vectors, accepted %d", eng.calls, accepted)
	}
}

func TestNoDropsWhenArrivalSlowerThanService(t *testing.T) {
	eng := &fakeEngine{window: 1, gpuCycles: 100} // 2 us service
	m, _ := New(Config{Engine: eng, FIFODepth: 2})
	for i := int64(0); i < 50; i++ {
		_, ok, err := m.Push(vec(i, sim.Time(i)*10*sim.Microsecond, 1))
		if err != nil || !ok {
			t.Fatalf("vector %d dropped under light load", i)
		}
	}
	if m.Stats().Dropped != 0 {
		t.Error("drops under light load")
	}
}

func TestProtocolConverter(t *testing.T) {
	eng := &fakeEngine{window: 2, gpuCycles: 1}
	m, _ := New(Config{Engine: eng, Translate: func(c int32) int32 { return c - 1024 }})
	_, ok, err := m.Push(vec(0, 0, 1030, 1024))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if eng.seen[0][0] != 6 || eng.seen[0][1] != 0 {
		t.Errorf("translated window = %v", eng.seen[0])
	}
	// Untranslatable class is an error, not silence.
	if _, _, err := m.Push(vec(1, 0, 5, 5)); err == nil {
		t.Error("negative translated class accepted")
	}
}

func TestWindowLengthValidation(t *testing.T) {
	eng := &fakeEngine{window: 4, gpuCycles: 1}
	m, _ := New(Config{Engine: eng})
	if _, _, err := m.Push(vec(0, 0, 1, 2)); err == nil {
		t.Error("short vector accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
}
