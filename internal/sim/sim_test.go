package sim

import "testing"

func TestClockPeriods(t *testing.T) {
	tests := []struct {
		clock  *Clock
		period Time
	}{
		{CPUClock, 4 * Nanosecond},
		{FabricClock, 8 * Nanosecond},
		{GPUClock, 20 * Nanosecond},
	}
	for _, tt := range tests {
		if got := tt.clock.Period(); got != tt.period {
			t.Errorf("%v period = %v, want %v", tt.clock, got, tt.period)
		}
	}
	if got := CPUClock.String(); got != "cpu@250MHz" {
		t.Errorf("Clock.String = %q", got)
	}
}

func TestClockDurationCycles(t *testing.T) {
	c := NewClock("t", 125_000_000)
	if got := c.Duration(2); got != 16*Nanosecond {
		t.Errorf("Duration(2) = %v, want 16ns", got)
	}
	if got := c.CyclesCeil(100 * Nanosecond); got != 13 {
		t.Errorf("CyclesCeil(100ns) = %d, want 13", got)
	}
	if got := c.CyclesCeil(96 * Nanosecond); got != 12 {
		t.Errorf("CyclesCeil(96ns) = %d, want 12", got)
	}
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock("t", 250_000_000) // 4ns
	cases := []struct{ in, want Time }{
		{0, 0},
		{1, 4 * Nanosecond},
		{4 * Nanosecond, 4 * Nanosecond},
		{5 * Nanosecond, 8 * Nanosecond},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.in); got != cse.want {
			t.Errorf("NextEdge(%v) = %v, want %v", cse.in, got, cse.want)
		}
	}
}

func TestClockPanics(t *testing.T) {
	for _, hz := range []int64{0, -1, 3_000_000_007} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%d) did not panic", hz)
				}
			}()
			NewClock("bad", hz)
		}()
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{16 * Nanosecond, "16ns"},
		{3620 * Nanosecond, "3.62us"},
		{2 * Millisecond, "2ms"},
		{Second, "1s"},
		{500, "500ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %g", got)
	}
}
