// Package cpu models the RTAD host processor: an in-order core executing the
// isa package's instruction set with a cycle-accurate-ish timing model, a
// supervisor-call trap, and — the part the paper depends on — a retirement
// hook that reports every executed control-flow transfer to a trace sink
// (the CoreSight PTM model). The package also implements the three
// software-based collection baselines of Fig 6 (SW_SYS / SW_FUNC / SW_ALL)
// by executing instrumentation stubs at the corresponding event sites.
package cpu

import "fmt"

// Kind classifies a retired control-flow transfer. The classification drives
// both PTM packet selection (direct transfers become atoms, indirect ones
// need full branch-address packets) and the ML feature extraction (the ELM
// model consumes syscalls, the LSTM model general branches).
type Kind uint8

// Transfer kinds.
const (
	KindDirect   Kind = iota // unconditional or taken conditional direct branch
	KindCall                 // direct call (BL)
	KindReturn               // return through the link register
	KindIndirect             // indirect jump through a register
	KindIndCall              // indirect call through a register
	KindSyscall              // supervisor call (kernel entry)

	numKinds
)

var kindNames = [numKinds]string{
	KindDirect: "direct", KindCall: "call", KindReturn: "return",
	KindIndirect: "indirect", KindIndCall: "indcall", KindSyscall: "syscall",
}

// String returns a short name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsIndirectKind reports whether a transfer of this kind has a target that
// cannot be recovered from the static binary, so a trace unit must emit the
// full target address.
func (k Kind) IsIndirectKind() bool {
	switch k {
	case KindReturn, KindIndirect, KindIndCall, KindSyscall:
		return true
	}
	return false
}

// SyscallBase is the architectural kernel entry region. A supervisor call
// with service number n transfers to SyscallBase | n<<2, which gives every
// service a distinct, stable target address — the property the IGM address
// mapper uses to turn syscalls into ML feature IDs.
const SyscallBase uint32 = 0xFFFF_0000

// SyscallTarget returns the kernel entry address for service number n.
func SyscallTarget(n int32) uint32 { return SyscallBase | uint32(n)<<2 }

// SyscallNumber recovers the service number from a kernel entry address.
func SyscallNumber(target uint32) int32 { return int32(target&^SyscallBase) >> 2 }

// BranchEvent describes one executed branch instruction. Not-taken
// conditional branches are reported too (Taken=false): a PFT-style trace
// unit must emit an atom for every waypoint so the decoder can follow the
// static code between emitted addresses.
type BranchEvent struct {
	Seq    int64  // retirement order, from 0
	Cycle  int64  // CPU cycle at retirement
	PC     uint32 // address of the branch instruction
	Target uint32 // destination (meaningful when Taken)
	Kind   Kind
	Taken  bool
}

// A Sink consumes retired branch events. BranchRetired returns the number
// of CPU cycles the core must stall before the *next* instruction issues;
// a zero return is the common case. The CoreSight path uses the stall
// return to model trace-FIFO backpressure — the only mechanism by which
// RTAD perturbs the host (Fig 6's 0.052 % overhead).
type Sink interface {
	BranchRetired(ev BranchEvent) (stallCycles int64)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(BranchEvent) int64

// BranchRetired calls f.
func (f SinkFunc) BranchRetired(ev BranchEvent) int64 { return f(ev) }

// CollectSink is a Sink that records retired branches into a slice (taken
// transfers only, with TakenOnly), for tests. Training records its normal
// trace through attack.Pool instead.
type CollectSink struct {
	Events    []BranchEvent
	TakenOnly bool
}

// BranchRetired implements Sink with no stall.
func (c *CollectSink) BranchRetired(ev BranchEvent) int64 {
	if !c.TakenOnly || ev.Taken {
		c.Events = append(c.Events, ev)
	}
	return 0
}
