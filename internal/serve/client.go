package serve

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Client is the Go client for an rtad-wire session: dial, stream trace
// bytes, receive judgments as the engine produces them, finish with the
// summary. A Client is safe for one streaming goroutine; judgments are
// delivered on the client's internal reader goroutine.
//
//	c, err := serve.Dial(addr, serve.Hello{
//		Proto: serve.Proto, Benchmark: "458.sjeng", Model: "lstm",
//	}, func(j serve.Judgment) { fmt.Println(j.Seq, j.Anomaly) })
//	c.Send(traceBytes)
//	sum, err := c.Finish()
type Client struct {
	conn    net.Conn
	welcome Welcome
	timeout time.Duration
	ctx     context.Context

	onJudgment func(Judgment)

	readerDone chan struct{}
	sum        *Summary
	err        error
}

// DialTimeout bounds the handshake and each subsequent read/write unless
// WithOpTimeout overrides it.
const DialTimeout = time.Minute

// ClientOption tunes a Dial/DialContext call.
type ClientOption func(*Client)

// WithOpTimeout sets the per-operation deadline applied to every write
// (Send, Finish) and to the gap between received frames — the bound that
// keeps a stalled daemon from hanging the client. 0 or negative keeps
// DialTimeout.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// Dial connects to an rtadd server, negotiates a session with hello
// (hello.Proto defaults to Proto if empty), and starts receiving. A non-nil
// onJudgment is called from the reader goroutine for every judgment as it
// arrives; with nil, judgments are read and discarded. Once Finish returns
// the summary the reader goroutine is done, so what onJudgment recorded is
// safe to read. A server rejection (busy, draining, bad hello) is returned
// as an *ErrorMsg error.
func Dial(addr string, hello Hello, onJudgment func(Judgment), opts ...ClientOption) (*Client, error) {
	return DialContext(context.Background(), addr, hello, onJudgment, opts...)
}

// DialContext is Dial under a context: the dial and handshake observe
// ctx's deadline and cancellation, and cancelling ctx after the handshake
// closes the connection, unblocking any Send/Finish in flight (which then
// return ctx's error).
func DialContext(ctx context.Context, addr string, hello Hello, onJudgment func(Judgment), opts ...ClientOption) (*Client, error) {
	d := net.Dialer{Timeout: DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		timeout:    DialTimeout,
		ctx:        ctx,
		onJudgment: onJudgment,
		readerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if hello.Proto == "" {
		hello.Proto = Proto
	}
	// The handshake runs before the reader goroutine exists, so ctx
	// cancellation is enforced by a temporary watcher.
	handshakeDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-handshakeDone:
			}
		}()
	}
	hsErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("serve: dial: %w", cerr)
		}
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if err := writeJSON(conn, FrameHello, &hello); err != nil {
		close(handshakeDone)
		conn.Close()
		return nil, hsErr(fmt.Errorf("serve: sending hello: %w", err))
	}
	conn.SetReadDeadline(time.Now().Add(c.timeout))
	t, payload, _, err := ReadFrame(conn, nil)
	if err != nil {
		close(handshakeDone)
		conn.Close()
		return nil, hsErr(fmt.Errorf("serve: reading welcome: %w", err))
	}
	close(handshakeDone)
	switch t {
	case FrameWelcome:
		if err := unmarshalFrame(payload, &c.welcome); err != nil {
			conn.Close()
			return nil, err
		}
	case FrameError:
		defer conn.Close()
		return nil, decodeErrorFrame(payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("serve: expected welcome, got %v", t)
	}
	if ctx.Done() != nil {
		// Post-handshake watcher: cancellation closes the connection, which
		// unblocks the reader and any in-flight write.
		go func() {
			select {
			case <-ctx.Done():
				c.conn.Close()
			case <-c.readerDone:
			}
		}()
	}
	go c.readLoop()
	return c, nil
}

// Welcome returns the negotiated session parameters.
func (c *Client) Welcome() Welcome { return c.welcome }

// SessionID returns the server-minted session identifier — the value to
// correlate with the server's structured logs, wall-trace spans and
// /debug/sessions rows.
func (c *Client) SessionID() string { return c.welcome.SessionID }

// ModelVersion returns the registry version id of the model this session
// judges on — fixed at admission for the session's whole life, so a client
// can attribute every judgment to exact weights across hot-swaps. Returns 0
// when the server predates the model registry (legacy welcome payload).
func (c *Client) ModelVersion() int64 { return c.welcome.ModelVersion }

// Send streams raw PTM trace bytes, transparently splitting data into
// MaxFrame-sized chunks. Chunk boundaries never affect the judgment stream.
func (c *Client) Send(data []byte) error {
	const max = MaxFrame - 1
	for len(data) > 0 {
		n := len(data)
		if n > max {
			n = max
		}
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
		if err := WriteFrame(c.conn, FrameChunk, data[:n]); err != nil {
			// A send failure usually means the server already sent the real
			// error; surface it if the reader has it.
			if rerr := c.waitReader(time.Second); rerr != nil {
				return rerr
			}
			return err
		}
		data = data[n:]
	}
	return nil
}

// Finish signals end-of-stream, waits for the remaining judgments and the
// summary, and closes the connection.
func (c *Client) Finish() (*Summary, error) {
	if err := c.ctx.Err(); err != nil {
		// Already cancelled: the watcher may not have closed the
		// connection yet, and a fast server could still deliver the
		// summary, so abort rather than race it.
		c.Close()
		return nil, fmt.Errorf("serve: session cancelled: %w", err)
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if err := WriteFrame(c.conn, FrameEOS, nil); err != nil {
		if rerr := c.waitReader(time.Second); rerr != nil {
			return nil, rerr
		}
		return nil, err
	}
	<-c.readerDone
	c.conn.Close()
	if c.err != nil {
		return nil, c.err
	}
	if c.sum == nil {
		return nil, fmt.Errorf("serve: connection closed before summary")
	}
	return c.sum, nil
}

// Close aborts the session without waiting for a summary.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// waitReader waits briefly for the reader goroutine to surface a terminal
// error (used to prefer the server's error frame over a local write error).
func (c *Client) waitReader(d time.Duration) error {
	select {
	case <-c.readerDone:
		return c.err
	case <-time.After(d):
		return nil
	}
}

// readLoop consumes server frames until summary, error frame, or
// disconnect. It is the only reader of the connection after the handshake.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	for {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		t, payload, nbuf, err := ReadFrame(c.conn, buf)
		buf = nbuf
		if err != nil {
			if c.ctx != nil && c.ctx.Err() != nil {
				c.err = fmt.Errorf("serve: session cancelled: %w", c.ctx.Err())
			} else {
				c.err = fmt.Errorf("serve: connection lost: %w", err)
			}
			return
		}
		switch t {
		case FrameJudgment:
			j, err := DecodeJudgment(payload)
			if err != nil {
				c.err = err
				return
			}
			if c.onJudgment != nil {
				c.onJudgment(j)
			}
		case FrameSummary:
			var sum Summary
			if err := unmarshalFrame(payload, &sum); err != nil {
				c.err = err
				return
			}
			c.sum = &sum
			return
		case FrameError:
			c.err = decodeErrorFrame(payload)
			return
		default:
			c.err = fmt.Errorf("serve: unexpected %v frame from server", t)
			return
		}
	}
}
