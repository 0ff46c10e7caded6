// Package sim provides the time base every hardware model in the RTAD
// reproduction shares: picosecond-resolution simulated time, per-domain
// clocks (the FPGA prototype runs the CPU at 250 MHz, the MLPU fabric at
// 125 MHz and ML-MIAOW at 50 MHz), and the queue statistics each buffering
// stage reports. There is no event queue: every model computes its timeline
// in closed form from cycle counts and its inputs' timestamps.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds. Picosecond
// resolution lets every clock period used by the prototype (4 ns, 8 ns,
// 20 ns) be represented exactly while still covering about 106 days of
// simulated time in an int64, far beyond any run in this repository.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds reports t as a floating-point microsecond count, the unit the
// paper uses for every latency figure.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats t with an auto-selected unit, e.g. "3.62us" or "16ns".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond:
		return fmt.Sprintf("%gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%gus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// A Clock describes one clock domain: a name and an exact period. All
// hardware latencies in the models are expressed as cycle counts and
// converted to Time through the component's Clock, mirroring how the RTL
// prototype derives wall-clock latency from cycle counts at a domain
// frequency.
type Clock struct {
	name   string
	period Time
}

// NewClock returns a clock domain running at hz hertz. It panics if the
// period is not an integral number of picoseconds, because a drifting clock
// would make cross-domain event ordering nondeterministic.
func NewClock(name string, hz int64) *Clock {
	if hz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	if int64(Second)%hz != 0 {
		panic(fmt.Sprintf("sim: %d Hz has a non-integral picosecond period", hz))
	}
	return &Clock{name: name, period: Time(int64(Second) / hz)}
}

// Prototype clock domains from the paper's ZC706 configuration (§IV).
var (
	// CPUClock models the Cortex-A9 host, lowered to 250 MHz to emulate
	// the host/coprocessor frequency ratio of production AP systems.
	CPUClock = NewClock("cpu", 250_000_000)
	// FabricClock models the RTAD fabric (PTM port, TPIU, IGM, MCM) at
	// 125 MHz.
	FabricClock = NewClock("fabric", 125_000_000)
	// GPUClock models ML-MIAOW, which closes timing at 50 MHz on the FPGA.
	GPUClock = NewClock("gpu", 50_000_000)
)

// Period returns the exact clock period.
func (c *Clock) Period() Time { return c.period }

// Duration converts a cycle count in this domain to simulated time.
func (c *Clock) Duration(cycles int64) Time { return Time(cycles) * c.period }

// CyclesCeil reports the number of periods needed to cover d completely,
// i.e. the cycle count a synchronous circuit needs to wait at least d.
func (c *Clock) CyclesCeil(d Time) int64 {
	return int64((d + c.period - 1) / c.period)
}

// NextEdge returns the earliest clock edge at or after t. Components that
// sample asynchronous inputs use it to model synchroniser alignment.
func (c *Clock) NextEdge(t Time) Time {
	rem := t % c.period
	if rem == 0 {
		return t
	}
	return t + c.period - rem
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("%s@%gMHz", c.name, float64(Second)/float64(c.period)/1e6)
}
