package wire

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ClientConfig tunes one wire client connection.
type ClientConfig struct {
	// Token is the shared secret presented in the Hello; Tenant the home
	// this connection produces for (and receives alarms of).
	Token  string
	Tenant string
	// MaxFrame caps accepted inbound frame sizes; <= 0 selects
	// DefaultMaxFrame.
	MaxFrame int
	// TLS, when non-nil, wraps the connection in TLS before the wire
	// handshake. A zero ServerName is filled in from the dialed host
	// unless verification is disabled. Session clients reuse the same
	// config on every reconnect.
	TLS *tls.Config
	// DialTimeout bounds the TCP connect plus the TLS and Hello/Welcome
	// handshakes. Defaults to 10s.
	DialTimeout time.Duration
	// OnNack receives every Nack frame (refused events). Called from the
	// client's reader goroutine.
	OnNack func(Nack)
	// OnAlarm receives every Alarm frame pushed by the server. Called
	// from the client's reader goroutine.
	OnAlarm func(Alarm)
	// Session, when non-empty, names a durable server-side session to
	// attach: Dial pipelines a session-intent Hello and a Resume frame,
	// and the handshake completes only after the server's ResumeOK.
	// Empty keeps the plain v1 handshake.
	Session string
	// AlarmIdx is the highest session-alarm index this producer has
	// already received, echoed in the Resume so the server replays only
	// the gap. Ignored without Session.
	AlarmIdx uint64
	// OnAck receives the server's cumulative event acknowledgements:
	// every event with Seq at or below the value has been decided.
	// Session connections only; called from the reader goroutine.
	OnAck func(seq uint64)
	// OnSessionAlarm receives session-indexed alarms (replacing OnAlarm
	// on session connections). Called from the reader goroutine.
	OnSessionAlarm func(idx uint64, a Alarm)
}

// Client is one producer connection: Send streams events (buffered; call
// Flush to push a partial batch), while a reader goroutine dispatches the
// server's Nack and Alarm frames to the configured callbacks.
//
// A server whose Welcome announces CapEventBatch receives the events packed
// into EventBatch frames: the client keeps one batch open and closes it on
// Flush, at MaxEventBatch events, before it would outgrow the server's
// frame limit, and before any other frame. Any other server receives one
// Event frame per event.
//
// Send/Flush/Close are safe for concurrent use; the callbacks run on the
// single reader goroutine.
type Client struct {
	nc  net.Conn
	cfg ClientConfig

	mu      sync.Mutex
	bw      *bufio.Writer
	scratch []byte
	closed  bool

	// batchMax is the server's frame limit when it accepts EventBatch
	// frames, 0 when it does not; batch holds the open EventBatch frame
	// and batchN its event count (0: no batch open).
	batchMax int
	batch    []byte
	batchN   int

	readDone chan struct{}
	errMu    sync.Mutex
	readErr  error

	// Resume handshake results (immutable after Dial).
	resumeWatermark uint64
	resumeAlarmIdx  uint64
}

// Dial connects to a wire server and authenticates the connection to
// cfg.Tenant. A Hello refused by the server surfaces as an error matching
// the reason (ErrBadAuth for a bad token, ErrBadFrame for a protocol
// mismatch); the Nack detail rides in the message.
func Dial(addr string, cfg ClientConfig) (*Client, error) { return dial(addr, cfg, nil) }

// dial is Dial for a session client: its alarm receipt cursor, when
// non-nil, sees the resume reply before the reader delivers any alarm.
func dial(addr string, cfg ClientConfig, alarms *AlarmCursor) (*Client, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var hello []byte
	var err error
	if cfg.Session != "" {
		// Pipeline session-intent Hello + Resume: one round trip covers
		// the whole handshake, and the server claims the session's alarm
		// route before any alarm could slip past its bank.
		hello, err = AppendHelloSession(nil, cfg.Token, cfg.Tenant)
		if err == nil {
			hello, err = AppendResume(hello, cfg.Session, cfg.AlarmIdx)
		}
	} else {
		hello, err = AppendHello(nil, cfg.Token, cfg.Tenant)
	}
	if err != nil {
		return nil, err
	}
	nc, r, t, p, err := DialStream(addr, cfg.TLS, timeout, hello, cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:       nc,
		cfg:      cfg,
		bw:       bufio.NewWriterSize(nc, 32<<10),
		readDone: make(chan struct{}),
	}
	switch t {
	case FrameWelcome:
		_, maxFrame, caps, err := ParseWelcome(p)
		if err != nil {
			nc.Close()
			return nil, err
		}
		if caps&CapEventBatch != 0 {
			c.batchMax = int(maxFrame)
		}
	case FrameNack:
		nc.Close()
		return nil, helloError(p)
	default:
		nc.Close()
		return nil, fmt.Errorf("%w: handshake frame %s", ErrBadFrame, t)
	}
	if cfg.Session != "" {
		t, p, err := r.Next()
		if err != nil {
			nc.Close()
			return nil, fmt.Errorf("wire: resume handshake: %w", err)
		}
		switch t {
		case FrameResumeOK:
			wm, aidx, perr := ParseResumeOK(p)
			if perr != nil {
				nc.Close()
				return nil, perr
			}
			c.resumeWatermark, c.resumeAlarmIdx = wm, aidx
		case FrameNack:
			nc.Close()
			return nil, helloError(p)
		default:
			nc.Close()
			return nil, fmt.Errorf("%w: resume handshake frame %s", ErrBadFrame, t)
		}
	}
	nc.SetDeadline(time.Time{})
	if alarms != nil {
		alarms.Restart(c.resumeAlarmIdx)
	}
	go c.readLoop(r)
	return c, nil
}

// helloError converts a handshake Nack payload into a sentinel-matchable
// error.
func helloError(p []byte) error {
	n, err := ParseNack(p)
	if err != nil {
		return err
	}
	switch n.Code {
	case CodeBadAuth:
		return fmt.Errorf("%w: %s", ErrBadAuth, n.Detail)
	case CodeProtocol:
		return fmt.Errorf("%w: %s", ErrBadFrame, n.Detail)
	default:
		return fmt.Errorf("wire: hello refused (%s): %s", n.Code, n.Detail)
	}
}

func (c *Client) readLoop(r *Reader) {
	defer close(c.readDone)
	for {
		t, p, err := r.Next()
		if err != nil {
			c.setErr(err)
			return
		}
		switch t {
		case FrameNack:
			n, err := ParseNack(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if c.cfg.OnNack != nil {
				c.cfg.OnNack(n)
			}
		case FrameAlarm:
			a, err := ParseAlarm(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if c.cfg.OnAlarm != nil {
				c.cfg.OnAlarm(a)
			}
		case FrameAck:
			seq, err := ParseAck(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if c.cfg.OnAck != nil {
				c.cfg.OnAck(seq)
			}
		case FrameSessionAlarm:
			idx, a, err := ParseSessionAlarm(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if c.cfg.OnSessionAlarm != nil {
				c.cfg.OnSessionAlarm(idx, a)
			}
		case FramePong:
			// Keepalive reply; receiving it already reset our read state.
		default:
			c.setErr(fmt.Errorf("%w: unexpected %s frame from server", ErrBadFrame, t))
			return
		}
	}
}

func (c *Client) setErr(err error) {
	c.errMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.errMu.Unlock()
}

// Err reports the reader goroutine's terminal error, if any: nil while the
// connection is healthy, io.EOF (or a net error) after the server hung up.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.readErr
}

// Done is closed when the reader goroutine exits — the connection is dead
// (or Close ran) and Err carries the reason.
func (c *Client) Done() <-chan struct{} { return c.readDone }

// ResumeState reports the server's answer to this connection's Resume: the
// session's decided-event watermark and its alarm index at attach time.
// Zero values on a plain (non-session) connection.
func (c *Client) ResumeState() (watermark, alarmIdx uint64) {
	return c.resumeWatermark, c.resumeAlarmIdx
}

// Send buffers one event toward the server. Frames are flushed when the
// buffer fills; call Flush to push a partial batch (e.g. when pacing).
// After the connection dies, Send returns the terminal error instead of
// buffering into a dead pipe.
func (c *Client) Send(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if c.batchMax == 0 {
		return c.writeEventLocked(ev, AppendEvent)
	}
	if c.batchN > 0 {
		buf, err := appendEventBody(c.batch, ev)
		if err != nil {
			return err
		}
		if len(buf)-headerLen <= c.batchMax {
			c.batch = buf
			return c.addedLocked()
		}
		if err := c.closeBatchLocked(); err != nil {
			return err
		}
	}
	buf, _ := begin(c.batch[:0], FrameEventBatch)
	buf, err := appendEventBody(append(buf, 0, 0), ev)
	if err != nil {
		return err
	}
	if len(buf)-headerLen > c.batchMax {
		// Too large even alone in a batch: a plain Event frame, which the
		// server's limit refuses exactly as it would a v1 client's.
		return c.writeEventLocked(ev, AppendEvent)
	}
	c.batch = buf
	return c.addedLocked()
}

// addedLocked counts the event just appended to the open batch and closes
// the batch once it holds MaxEventBatch events.
func (c *Client) addedLocked() error {
	c.batchN++
	if c.batchN < MaxEventBatch {
		return nil
	}
	return c.closeBatchLocked()
}

// closeBatchLocked patches the open EventBatch frame's length and count and
// hands it to the buffered writer; a no-op when no batch is open.
func (c *Client) closeBatchLocked() error {
	if c.batchN == 0 {
		return nil
	}
	binary.BigEndian.PutUint16(c.batch[headerLen+1:], uint16(c.batchN))
	c.batchN = 0
	_, err := c.bw.Write(frame(c.batch, headerLen))
	c.batch = c.batch[:0]
	return err
}

// SendRetx buffers one retransmitted event frame — identical payload to
// an Event frame under the EventRetx type, so the server's retransmit
// accounting stays honest.
func (c *Client) SendRetx(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.closeBatchLocked(); err != nil {
		return err
	}
	return c.writeEventLocked(ev, AppendEventRetx)
}

func (c *Client) usableLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	return c.Err()
}

func (c *Client) writeEventLocked(ev Event, enc func([]byte, Event) ([]byte, error)) error {
	frame, err := enc(c.scratch[:0], ev)
	if err != nil {
		return err
	}
	c.scratch = frame[:0]
	_, err = c.bw.Write(frame)
	return err
}

// Ping enqueues and flushes a keepalive frame, refreshing the server's
// idle deadline for this connection.
func (c *Client) Ping() error {
	return c.sendRaw(AppendPing(nil))
}

// AckAlarm sends the cumulative session-alarm receipt: the server may
// prune its replay ring up to idx.
func (c *Client) AckAlarm(idx uint64) error {
	return c.sendRaw(AppendAlarmAck(nil, idx))
}

// sendRaw closes the open batch, then writes frame and flushes.
func (c *Client) sendRaw(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.closeBatchLocked(); err != nil {
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Flush closes the open batch and pushes every buffered frame onto the
// wire.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.closeBatchLocked(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Close sends a Bye, flushes, closes the connection, and waits for the
// reader goroutine to finish (so every already-received Nack and Alarm has
// been dispatched). Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readDone
		return nil
	}
	c.closed = true
	c.closeBatchLocked()
	c.bw.Write(AppendBye(nil))
	err := c.bw.Flush()
	c.mu.Unlock()
	// Give the server a beat to push trailing alarms, then cut the
	// connection, which ends the reader.
	c.nc.SetReadDeadline(time.Now().Add(time.Second))
	<-c.readDone
	c.nc.Close()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
