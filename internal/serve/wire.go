// Package serve turns the in-process detection engine into a long-lived
// network service: a TCP daemon (cmd/rtadd) that accepts raw CoreSight PTM
// byte streams — the format cmd/tracegen captures and internal/tracefile
// carries — over a small length-prefixed wire protocol, multiplexes many
// concurrent client sessions onto a bounded pool of pre-loaded read-only
// core.Deployments, and streams judgments back as the inference engine
// produces them. This is the deployment shape of the paper's always-on
// monitor (§IV): the monitored SoC is elsewhere; only its trace bytes reach
// the detector.
//
// # Wire protocol (rtad-wire/1)
//
// Every frame is a little-endian uint32 length followed by that many bytes,
// of which the first is the frame type:
//
//	| len uint32 LE | type uint8 | payload [len-1]byte |
//
// len counts the type byte, so len >= 1; frames above MaxFrame are a
// protocol error. The conversation is strictly client-speaks-first:
//
//	C -> S  hello    JSON: proto, benchmark, model, backend, cus, window,
//	                 pacing, optional attack spec
//	S -> C  welcome  JSON: negotiated session parameters
//	                 (or error: busy | draining | bad request)
//	C -> S  chunk*   raw PTM trace bytes, any chunking
//	C -> S  eos      end of stream
//	S -> C  judgment* fixed 41-byte binary records, interleaved with chunks
//	S -> C  summary  JSON: counts plus the DetectionResult fields when an
//	                 attack was armed and fired
//
// Judgment frames use a fixed binary layout (not JSON) because a busy
// session emits thousands of them; everything negotiated once per session
// is JSON for debuggability.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Proto is the protocol identifier exchanged in hello/welcome.
const Proto = "rtad-wire/1"

// MaxFrame bounds a frame's length field (type byte + payload). Trace
// chunks larger than this must be split; the cap keeps a malicious or
// corrupt length prefix from driving a large allocation.
const MaxFrame = 1 << 20

// FrameType tags a frame's payload.
type FrameType uint8

// Frame types. The zero value is invalid so an all-zeroes frame is caught.
const (
	FrameHello    FrameType = 1 // C->S: session negotiation (JSON Hello)
	FrameWelcome  FrameType = 2 // S->C: negotiation result (JSON Welcome)
	FrameChunk    FrameType = 3 // C->S: raw PTM trace bytes
	FrameEOS      FrameType = 4 // C->S: end of trace stream
	FrameJudgment FrameType = 5 // S->C: one judgment (binary, JudgmentSize)
	FrameSummary  FrameType = 6 // S->C: end-of-stream summary (JSON Summary)
	FrameError    FrameType = 7 // S->C: terminal error (JSON ErrorMsg)
)

var frameNames = map[FrameType]string{
	FrameHello: "hello", FrameWelcome: "welcome", FrameChunk: "chunk",
	FrameEOS: "eos", FrameJudgment: "judgment", FrameSummary: "summary",
	FrameError: "error",
}

// String names the frame type.
func (t FrameType) String() string {
	if n, ok := frameNames[t]; ok {
		return n
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// WriteFrame emits one frame.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("serve: frame payload %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf for the payload when it is large
// enough. The returned payload aliases the (possibly grown) buffer, which
// is also returned for reuse; it is valid until the next ReadFrame with the
// same buffer.
func ReadFrame(r io.Reader, buf []byte) (t FrameType, payload, newBuf []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, buf, fmt.Errorf("serve: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("serve: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	t = FrameType(hdr[4])
	if _, ok := frameNames[t]; !ok {
		return 0, nil, buf, fmt.Errorf("serve: unknown frame type %d", hdr[4])
	}
	body := int(n) - 1
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	buf = buf[:cap(buf)]
	if body > 0 {
		if _, err := io.ReadFull(r, buf[:body]); err != nil {
			return 0, nil, buf, fmt.Errorf("serve: truncated %v frame: %w", t, err)
		}
	}
	return t, buf[:body], buf, nil
}

// AttackSpec is the wire form of core.AttackSpec: arming it in hello makes
// the server splice the deployment's legitimate-event pool into the
// replayed stream, so a remote session measures detection latency exactly
// like the in-process experiments.
type AttackSpec struct {
	// TriggerBranch fires the burst after this many taken transfers
	// (0 = on the very next one, the strict Session.Inject semantics).
	TriggerBranch int64 `json:"trigger_branch"`
	// BurstLen is the injected legitimate-event count,
	// 1..attack.MaxBurstLen.
	BurstLen int   `json:"burst_len"`
	Mimicry  bool  `json:"mimicry,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

// Hello is the client's opening negotiation. Zero numeric fields and an
// empty backend pick core's defaults; values outside core's bounds are
// refused with ErrBadHello, and the welcome reports what was resolved.
type Hello struct {
	Proto     string `json:"proto"`
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"` // "elm" | "lstm"
	// Backend names the inference backend (kernels.NewBackend's names);
	// "" picks kernels.DefaultBackend.
	Backend string `json:"backend,omitempty"`
	// CUs is the compute-unit count, 1..core.MaxCUs; 0 picks core.MaxCUs.
	CUs int `json:"cus,omitempty"`
	// Window, when non-zero, asserts the input-vector length the client
	// expects; the server rejects a mismatch rather than silently judging
	// different features.
	Window int `json:"window,omitempty"`
	// GapCycles is the replay pacing (synthesized CPU cycles per branch
	// event), 1..core.MaxReplayGap; 0 picks core's default.
	GapCycles int64 `json:"gap_cycles,omitempty"`
	// Stride, when non-zero, overrides the deployment's IGM emission
	// stride (vectors per accepted branch window). Smaller strides judge
	// more densely; the stride changes which vectors exist, so all
	// sessions being compared must use the same value.
	Stride int         `json:"stride,omitempty"`
	Attack *AttackSpec `json:"attack,omitempty"`
}

// Welcome is the server's negotiation result.
type Welcome struct {
	Proto   string `json:"proto"`
	Session string `json:"session"`
	// SessionID duplicates Session under the key the observability plane
	// uses everywhere else — log lines, wall-trace span args, flight
	// recorder, /debug/sessions. A pure JSON addition: old clients ignore
	// it, old servers omit it, no wire version bump. New code should read
	// SessionID (via Client.SessionID, which falls back to Session).
	SessionID string `json:"session_id,omitempty"`
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	Backend   string `json:"backend"`
	Window    int    `json:"window"`
	GapCycles int64  `json:"gap_cycles"`
	Stride    int    `json:"stride,omitempty"`
	// ModelVersion is the registry version id of the deployment this
	// session was admitted on. The session judges on exactly this version
	// for its whole life, hot-swaps notwithstanding — the field is how a
	// client proves which weights judged its stream. Another pure JSON
	// addition (like SessionID): old clients ignore it, pre-registry
	// servers omit it, no wire version bump. Read it via
	// Client.ModelVersion, which reports 0 for old servers.
	ModelVersion int64 `json:"model_version,omitempty"`
}

// Error codes carried by FrameError.
const (
	ErrBusy     = "busy"     // admission control: MaxSessions live sessions
	ErrDraining = "draining" // graceful shutdown in progress
	ErrBadHello = "bad-hello"
	ErrProto    = "proto"
	ErrInternal = "internal"
)

// ErrorMsg is the payload of FrameError.
type ErrorMsg struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Error implements error so clients can surface the frame directly.
func (e *ErrorMsg) Error() string { return fmt.Sprintf("serve: %s: %s", e.Code, e.Msg) }

// Judgment is one judged vector on the wire — the fields of core.Judged
// that survive transport. All times are picoseconds of simulated time.
type Judgment struct {
	Seq         int64 // IGM vector sequence number
	Done        int64 // judgment available at the MCM RX engine
	FinalRetire int64 // retirement of the branch that completed the vector
	IRQAt       int64 // anomaly interrupt time (0 = no anomaly)
	MarginQ     int32 // this vector's margin score (Q16.16)
	EwmaQ       int32 // smoothed score the threshold compares against
	Anomaly     bool
}

// JudgmentSize is the fixed encoding length of a Judgment payload.
const JudgmentSize = 8 + 8 + 8 + 8 + 4 + 4 + 1

// AppendJudgment encodes j onto dst in the fixed little-endian layout.
// appendJudgmentFrame appends one complete judgment frame — header plus
// payload — so a burst of judgments can go out in a single write.
func appendJudgmentFrame(dst []byte, j Judgment) []byte {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(JudgmentSize+1))
	hdr[4] = byte(FrameJudgment)
	return AppendJudgment(append(dst, hdr[:]...), j)
}

func AppendJudgment(dst []byte, j Judgment) []byte {
	var b [JudgmentSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(j.Seq))
	binary.LittleEndian.PutUint64(b[8:], uint64(j.Done))
	binary.LittleEndian.PutUint64(b[16:], uint64(j.FinalRetire))
	binary.LittleEndian.PutUint64(b[24:], uint64(j.IRQAt))
	binary.LittleEndian.PutUint32(b[32:], uint32(j.MarginQ))
	binary.LittleEndian.PutUint32(b[36:], uint32(j.EwmaQ))
	if j.Anomaly {
		b[40] = 1
	}
	return append(dst, b[:]...)
}

// DecodeJudgment parses a FrameJudgment payload.
func DecodeJudgment(p []byte) (Judgment, error) {
	if len(p) != JudgmentSize {
		return Judgment{}, fmt.Errorf("serve: judgment payload %d bytes, want %d", len(p), JudgmentSize)
	}
	j := Judgment{
		Seq:         int64(binary.LittleEndian.Uint64(p[0:])),
		Done:        int64(binary.LittleEndian.Uint64(p[8:])),
		FinalRetire: int64(binary.LittleEndian.Uint64(p[16:])),
		IRQAt:       int64(binary.LittleEndian.Uint64(p[24:])),
		MarginQ:     int32(binary.LittleEndian.Uint32(p[32:])),
		EwmaQ:       int32(binary.LittleEndian.Uint32(p[36:])),
	}
	switch p[40] {
	case 0:
	case 1:
		j.Anomaly = true
	default:
		return Judgment{}, fmt.Errorf("serve: judgment anomaly flag %d", p[40])
	}
	return j, nil
}

// Latency is the Fig 8 quantity for a wire judgment, in picoseconds.
func (j Judgment) Latency() int64 { return j.Done - j.FinalRetire }

// Detection carries the DetectionResult fields of a session whose armed
// attack fired. All times are picoseconds of simulated time.
type Detection struct {
	Detected      bool  `json:"detected"`
	InjectTimePS  int64 `json:"inject_time_ps"`
	LatencyPS     int64 `json:"latency_ps"`
	MeanLatencyPS int64 `json:"mean_latency_ps"`
	IRQTimePS     int64 `json:"irq_time_ps"`
	FirstSeq      int64 `json:"first_seq"`
}

// Summary closes a session: pipeline counts always, detection figures when
// an attack was armed and fired.
type Summary struct {
	Judged       int        `json:"judged"`
	Dropped      int64      `json:"dropped"`
	MaxOccupancy int        `json:"max_occupancy"`
	TraceBytes   int64      `json:"trace_bytes"`
	Events       int64      `json:"events"`
	DecodeErrors int        `json:"decode_errors,omitempty"`
	AttackFired  bool       `json:"attack_fired,omitempty"`
	Detection    *Detection `json:"detection,omitempty"`
}

// writeJSON marshals v and writes it as one frame of type t.
func writeJSON(w io.Writer, t FrameType, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, t, blob)
}

// unmarshalFrame parses a JSON frame payload.
func unmarshalFrame(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("serve: malformed %T payload: %w", v, err)
	}
	return nil
}

// decodeErrorFrame turns a FrameError payload into an *ErrorMsg error.
func decodeErrorFrame(payload []byte) error {
	var e ErrorMsg
	if err := json.Unmarshal(payload, &e); err != nil {
		return fmt.Errorf("serve: malformed error frame: %w", err)
	}
	return &e
}
