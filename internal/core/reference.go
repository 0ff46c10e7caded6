package core

import (
	"fmt"

	"rtad/internal/cpu"
	"rtad/internal/igm"
	"rtad/internal/ptm"
	"rtad/internal/sim"
)

// The prototype's trace port and frame format (DESIGN §4), restated for
// the reference so that it shares no constant with ptm.Port or
// tpiu.Formatter.
const (
	refBeatBytes  = 4   // bytes the 32-bit port moves per fabric cycle
	refQueueBytes = 512 // departure queue the producer may run ahead by
	refFrameBytes = 16  // TPIU frame: source ID, payload, payload count
	refPayload    = refFrameBytes - 2
	refSourceID   = 0x41 // the PTM's trace-source ID
)

// reference is the byte/word trace chain, the oracle the counted chain is
// checked against (PipelineConfig.StagedTrace selects it). It moves real
// bytes end to end: the byte encoder's output is held back in the PTM
// port, departs four bytes per fabric cycle, is packed into 16-byte TPIU
// frames driven as 32-bit words, is reassembled from those words and is
// decoded again by a ptm.StreamDecoder. Each departed byte, port word and
// decoded packet is handled as it happens, in stream order.
//
// Its port, backpressure and frame-beat arithmetic is written here from
// the hardware's description, with its own constants: it calls nothing on
// ptm.Port or tpiu.Formatter, so an error in their timing shows up as a
// divergence instead of being shared. It shares the byte encoder, the
// stream decoder, the IGM (entered through FrameArrived, PacketDecoded and
// BranchDecoded, with the class looked up on the decoded address) and,
// through the pipeline, the MCM. It keeps no trace history and records no
// port or formatter telemetry.
type reference struct {
	enc    *ptm.Encoder
	dec    *ptm.StreamDecoder
	mapper *igm.AddressMap
	ig     *igm.IGM
	port   refPort
	tpiu   refFormatter

	bytes  []byte              // the encoder's output for one event, recycled
	frame  [refFrameBytes]byte // the frame being reassembled from port words
	nframe int                 // bytes of frame received so far
	err    error               // first inconsistency in the chain's own stream
}

// refPort is the PTM output stage: bytes wait in hold until the drain
// threshold, then leave on the port refBeatBytes per fabric cycle.
type refPort struct {
	threshold int
	hold      []byte
	free      sim.Time // when the port has sent every byte released so far
	accepted  int64
	maxHold   int
}

// refFormatter is the TPIU formatter: departed bytes wait in payload until
// a frame fills (or a flush), then the frame's four words leave on the
// port one per fabric cycle.
type refFormatter struct {
	payload    []byte
	latest     sim.Time // arrival of the latest byte, or the latest flush
	free       sim.Time // when the port has sent every word emitted so far
	accepted   int64
	maxPayload int
}

func newReference(mapper *igm.AddressMap, ig *igm.IGM, threshold int) *reference {
	if threshold <= 0 {
		threshold = ptm.DefaultDrainThreshold
	}
	return &reference{
		enc:    ptm.NewEncoder(ptm.Config{BranchBroadcast: true}),
		dec:    ptm.NewStreamDecoder(),
		mapper: mapper,
		ig:     ig,
		port:   refPort{threshold: threshold},
	}
}

// refStage reports one of the reference's stages in Pipeline.Stages, the
// way the counted port and formatter report themselves.
type refStage struct {
	name  string
	stats func() sim.QueueStats
}

func (s refStage) StageName() string          { return s.name }
func (s refStage) QueueStats() sim.QueueStats { return s.stats() }

func (q *refPort) stats() sim.QueueStats {
	return sim.QueueStats{Len: len(q.hold), MaxDepth: q.maxHold, Accepted: q.accepted}
}

func (f *refFormatter) stats() sim.QueueStats {
	return sim.QueueStats{Len: len(f.payload), MaxDepth: f.maxPayload, Accepted: f.accepted}
}

// branchRetiredRef is BranchRetired on the reference chain.
func (p *Pipeline) branchRetiredRef(ev cpu.BranchEvent) int64 {
	at := sim.CPUClock.Duration(ev.Cycle)
	// The retire-time record keys the branch's own target; the IGM keys
	// the address the wire carries, which drops bit 0.
	if ev.Taken {
		if _, ok := p.dep.Mapper.Lookup(ev.Target); ok {
			p.acceptedRetire = append(p.acceptedRetire, at)
		}
	}
	r := p.ref
	r.bytes = r.enc.EncodeInto(r.bytes[:0], ev)
	stall := r.push(at, r.bytes)
	p.refDrain()
	return sim.CPUClock.CyclesCeil(stall)
}

// flushRef is Flush on the reference chain: the encoder's buffered atoms
// and every held-back byte leave, vectors drain, then the partial frame
// leaves and vectors drain again.
func (p *Pipeline) flushRef(at sim.Time) {
	r := p.ref
	r.bytes = r.enc.FlushInto(r.bytes[:0])
	r.push(at, r.bytes)
	if len(r.port.hold) > 0 {
		r.release(at)
	}
	p.refDrain()
	if len(r.tpiu.payload) > 0 {
		r.tpiu.latest = max(r.tpiu.latest, at)
		r.emitFrame()
	}
	p.refDrain()
}

// refDrain moves the IGM's vectors into the MCM and reports the chain's
// own first error as the pipeline's.
func (p *Pipeline) refDrain() {
	if p.err == nil {
		p.err = p.ref.err
	}
	p.drainVectors()
}

// push holds the bytes produced at time at, releases the hold-back buffer
// once it reaches the drain threshold, and returns how long the producer
// must wait: the port may be committed at most refQueueBytes ahead of it,
// a full queue taking refQueueBytes/refBeatBytes fabric cycles to leave.
func (r *reference) push(at sim.Time, data []byte) sim.Time {
	q := &r.port
	q.hold = append(q.hold, data...)
	q.accepted += int64(len(data))
	q.maxHold = max(q.maxHold, len(q.hold))
	if len(q.hold) >= q.threshold {
		r.release(at)
	}
	canGo := q.free - sim.FabricClock.Duration(refQueueBytes/refBeatBytes)
	return max(canGo-at, 0)
}

// release sends every held byte onto the port. The first beat goes on the
// first fabric edge at or after the request, or once the port has sent
// everything released before, whichever is later; a beat carries
// refBeatBytes bytes, and each byte reaches the formatter on its beat.
func (r *reference) release(at sim.Time) {
	q := &r.port
	period := sim.FabricClock.Period()
	beat := max(sim.FabricClock.NextEdge(at), q.free)
	for i, b := range q.hold {
		if i > 0 && i%refBeatBytes == 0 {
			beat += period
		}
		r.format(beat, b)
	}
	q.free = beat + period
	q.hold = q.hold[:0]
}

// format takes one byte arriving at the formatter at time at, and emits a
// frame once refPayload bytes wait.
func (r *reference) format(at sim.Time, b byte) {
	f := &r.tpiu
	f.payload = append(f.payload, b)
	f.accepted++
	f.maxPayload = max(f.maxPayload, len(f.payload))
	f.latest = max(f.latest, at)
	if len(f.payload) == refPayload {
		r.emitFrame()
	}
}

// emitFrame packs the waiting payload into a frame and drives its four
// words onto the port, one per fabric cycle from the first edge at or
// after the latest byte's arrival, once the port has sent the previous
// frame.
func (r *reference) emitFrame() {
	f := &r.tpiu
	var frame [refFrameBytes]byte
	frame[0] = refSourceID
	copy(frame[1:], f.payload)
	frame[refFrameBytes-1] = byte(len(f.payload))
	f.payload = f.payload[:0]

	period := sim.FabricClock.Period()
	beat := max(sim.FabricClock.NextEdge(f.latest), f.free)
	for i := 0; i < refFrameBytes; i += 4 {
		w := uint32(frame[i]) | uint32(frame[i+1])<<8 | uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
		r.word(beat, w)
		beat += period
	}
	f.free = beat
}

// word is the IGM's trace-analyzer input: it reassembles a frame from port
// words and, on the frame's last word, decodes the payload and hands every
// completed packet to the IGM.
func (r *reference) word(at sim.Time, w uint32) {
	r.frame[r.nframe] = byte(w)
	r.frame[r.nframe+1] = byte(w >> 8)
	r.frame[r.nframe+2] = byte(w >> 16)
	r.frame[r.nframe+3] = byte(w >> 24)
	if r.nframe += 4; r.nframe < refFrameBytes {
		return
	}
	r.nframe = 0
	n := int(r.frame[refFrameBytes-1])
	if r.frame[0] != refSourceID || n < 1 || n > refPayload {
		r.fail(fmt.Errorf("core: reference trace chain: bad frame % x", r.frame))
		return
	}
	decodeAt := r.ig.FrameArrived(at)
	for _, b := range r.frame[1 : 1+n] {
		pkt, ok := r.dec.FeedByte(b)
		if !ok {
			continue
		}
		if pkt.Type != ptm.PktBranch {
			r.ig.PacketDecoded()
			continue
		}
		class, accepted := r.mapper.Lookup(pkt.Addr)
		r.ig.BranchDecoded(decodeAt, pkt.Addr, class, accepted)
	}
	if r.dec.Errors != 0 {
		r.fail(fmt.Errorf("core: reference trace chain: %d PTM decode errors", r.dec.Errors))
	}
}

func (r *reference) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
