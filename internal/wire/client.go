package wire

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ReceiptDelay is how long a session-alarm receipt (FrameAlarmAck) or a
// shard link's alarm receipt (FrameAlarmStreamAck) may wait for an outbound
// write to carry it before it is written on its own. Receipts are
// cumulative and ride the writes a connection already makes — the batch
// close, Flush or Ping on a producer, any link write on a router — so a
// busy stream confirms its alarms at no cost of its own; this fallback
// bounds how long a quiet sender's peer keeps them banked. At 10 ms a
// 256-entry bank (the default) drains unless the quiet end receives more
// than 25,600 alarms a second; ReceiptLag covers denser bursts.
const ReceiptDelay = 10 * time.Millisecond

// ReceiptLag is how many alarms a receipt may run ahead of the last one a
// write carried before it goes out at once instead of waiting for a write
// or ReceiptDelay: a dense burst of alarms then costs one receipt frame per
// ReceiptLag alarms at most, and never leaves more unconfirmed than a
// quarter of a default 256-entry bank.
const ReceiptLag = 64

// ClientConfig tunes a producer's connections: a SessionClient dials each
// of them with it.
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
	// unless verification is disabled. The same config serves every
	// reconnect.
	TLS *tls.Config
	// DialTimeout bounds the TCP connect plus the TLS and Hello/Welcome
	// handshakes. Defaults to 10s.
	DialTimeout time.Duration
	// OnNack receives every Nack frame (refused events). Called from the
	// client's reader goroutine.
	OnNack func(Nack)
	// OnAlarm receives every alarm the server pushes, with its session
	// index stripped and replays the session already holds dropped.
	// Called from the client's reader goroutine.
	OnAlarm func(Alarm)
}

// Client is one session connection, the one a SessionClient dials per
// (re)connect: Send streams events (buffered; call Flush to push a partial
// batch), while a reader goroutine dispatches the server's Nack, Ack and
// SessionAlarm frames to the callbacks.
//
// The events travel packed into EventBatch frames: the client keeps one
// batch open and closes it on Flush, at MaxEventBatch events, before it
// would outgrow the server's frame limit, and before any other frame.
//
// The reader drops replayed alarms by index through the session's alarm
// cursor and receipts the rest cumulatively: the highest index received
// rides the connection's next write as one FrameAlarmAck, or goes out on
// its own after ReceiptDelay.
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

	// Alarm receipts. rcpt is the highest session-alarm index received;
	// rcptSent the highest written into bw and rcptFlushed the highest
	// flushed from it (both written under mu). rcptArmed is set while
	// rcptTimer, the ReceiptDelay fallback, is pending, and rcptUrgent
	// while it is rescheduled to fire at once (ReceiptLag).
	rcpt                  atomic.Uint64
	rcptSent              uint64
	rcptFlushed           atomic.Uint64
	rcptArmed, rcptUrgent atomic.Bool
	rcptTimer             *time.Timer

	// maxFrame is the frame limit the server's Welcome announced; batch
	// holds the open EventBatch frame and batchN its event count (0: no
	// batch open).
	maxFrame int
	batch    []byte
	batchN   int

	readDone chan struct{}
	// readErr is the reader's terminal error, set once and read on every
	// send without a lock.
	readErr atomic.Pointer[error]
	// The reader's own state: the ack callback, the session's alarm cursor
	// and the intern table alarm names decode through.
	onAck  func(seq uint64)
	cursor *AlarmCursor
	names  Names

	// Resume handshake results (immutable after dial).
	resumeWatermark uint64
	resumeAlarmIdx  uint64
}

// dial opens one connection of the named session. It pipelines the Hello
// and a Resume carrying the alarm cursor's index, so one round trip covers
// the whole handshake and the server claims the session's alarm route
// before any alarm could slip past its bank; it returns after the server's
// Welcome and ResumeOK. A refused handshake surfaces as an error matching
// the reason (ErrBadAuth for a bad token, ErrBadFrame for a protocol
// mismatch, a server without CapEventBatch included), with the Nack detail
// in the message. The cursor sees the resume reply before the reader
// delivers any alarm. onAck, when non-nil, receives the server's cumulative
// event acknowledgements: every event with Seq at or below the value has
// been decided.
func dial(addr string, cfg ClientConfig, session string, cursor *AlarmCursor, onAck func(seq uint64)) (*Client, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	hello, err := AppendHelloSession(nil, cfg.Token, cfg.Tenant)
	if err == nil {
		hello, err = AppendResume(hello, session, cursor.Index())
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
		onAck:    onAck,
		cursor:   cursor,
	}
	switch t {
	case FrameWelcome:
		_, maxFrame, caps, err := ParseWelcome(p)
		if err == nil && caps&CapEventBatch == 0 {
			err = fmt.Errorf("%w: server does not accept event batches", ErrBadFrame)
		}
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.maxFrame = int(maxFrame)
	case FrameNack:
		nc.Close()
		return nil, helloError(p)
	default:
		nc.Close()
		return nil, fmt.Errorf("%w: handshake frame %s", ErrBadFrame, t)
	}
	t, p, err = r.Next()
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
	nc.SetDeadline(time.Time{})
	// The resume carried the receipt; the cursor's index is where this
	// connection's receipts start.
	cursor.Restart(c.resumeAlarmIdx)
	idx := cursor.Index()
	c.rcpt.Store(idx)
	c.rcptSent = idx
	c.rcptFlushed.Store(idx)
	c.rcptTimer = time.AfterFunc(time.Hour, c.receiptDue)
	c.rcptTimer.Stop()
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
		case FrameAck:
			seq, err := ParseAck(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if c.onAck != nil {
				c.onAck(seq)
			}
		case FrameSessionAlarm:
			idx, a, err := c.names.ParseSessionAlarm(p)
			if err != nil {
				c.setErr(err)
				return
			}
			if !c.cursor.Receive(idx) {
				break // a replay overlapping what this session already has
			}
			if c.cfg.OnAlarm != nil {
				c.cfg.OnAlarm(a)
			}
			c.ackAlarm(idx)
		case FramePong:
			// Keepalive reply; receiving it already reset our read state.
		default:
			c.setErr(fmt.Errorf("%w: unexpected %s frame from server", ErrBadFrame, t))
			return
		}
	}
}

func (c *Client) setErr(err error) { c.readErr.CompareAndSwap(nil, &err) }

// Err reports the reader goroutine's terminal error, if any: nil while the
// connection is healthy, io.EOF (or a net error) after the server hung up.
func (c *Client) Err() error {
	if p := c.readErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Done is closed when the reader goroutine exits — the connection is dead
// (or Close ran) and Err carries the reason.
func (c *Client) Done() <-chan struct{} { return c.readDone }

// ResumeState reports the server's answer to this connection's Resume: the
// session's decided-event watermark and its alarm index at attach time.
func (c *Client) ResumeState() (watermark, alarmIdx uint64) {
	return c.resumeWatermark, c.resumeAlarmIdx
}

// Send buffers one event toward the server. Frames are flushed when the
// buffer fills; call Flush to push a partial batch (e.g. when pacing). An
// event too large to travel alone in a batch under the server's frame limit
// is refused with ErrFrameTooLarge, and nothing is written. After the
// connection dies, Send returns the terminal error instead of buffering into
// a dead pipe.
func (c *Client) Send(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := fitEvent(ev, c.maxFrame); err != nil {
		return err
	}
	// fitEvent ruled out the event encoder's one error.
	if c.batchN > 0 {
		if buf, _ := appendEventBody(c.batch, ev); len(buf)-headerLen <= c.maxFrame {
			c.batch = buf
			return c.addedLocked()
		}
		if err := c.closeBatchLocked(); err != nil {
			return err
		}
	}
	buf, _ := begin(c.batch[:0], FrameEventBatch)
	c.batch, _ = appendEventBody(append(buf, 0, 0), ev)
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
// hands it to the buffered writer, followed by the pending alarm receipt:
// every batch close, Flush and Ping carries the receipt.
func (c *Client) closeBatchLocked() error {
	if c.batchN > 0 {
		binary.BigEndian.PutUint16(c.batch[headerLen+1:], uint16(c.batchN))
		c.batchN = 0
		_, err := c.bw.Write(frame(c.batch, headerLen))
		c.batch = c.batch[:0]
		if err != nil {
			return err
		}
	}
	return c.receiptLocked()
}

// receiptLocked writes one cumulative AlarmAck when a receipt is pending.
func (c *Client) receiptLocked() error {
	r := c.rcpt.Load()
	if r <= c.rcptSent {
		return nil
	}
	c.rcptSent = r
	c.scratch = AppendAlarmAck(c.scratch[:0], r)
	_, err := c.bw.Write(c.scratch)
	return err
}

// flushLocked flushes the buffered writer, receipts included.
func (c *Client) flushLocked() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.rcptFlushed.Store(c.rcptSent)
	return nil
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
	frame, err := AppendEventRetx(c.scratch[:0], ev)
	if err != nil {
		return err
	}
	c.scratch = frame[:0]
	_, err = c.bw.Write(frame)
	return err
}

func (c *Client) usableLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	return c.Err()
}

// Ping enqueues and flushes a keepalive frame, refreshing the server's
// idle deadline for this connection. It allocates nothing.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usableLocked(); err != nil {
		return err
	}
	if err := c.closeBatchLocked(); err != nil {
		return err
	}
	if _, err := c.bw.Write(pingFrame); err != nil {
		return err
	}
	return c.flushLocked()
}

// ackAlarm records the cumulative session-alarm receipt: the server may
// prune its replay ring up to idx. The receipt rides the connection's next
// batch close, Flush or Ping, and is written on its own after ReceiptDelay
// when none comes, or at once when it runs ReceiptLag alarms ahead of the
// last one flushed; a lower index than one already recorded is ignored. It
// never blocks: the write of its own runs on the timer's goroutine.
func (c *Client) ackAlarm(idx uint64) {
	for {
		cur := c.rcpt.Load()
		if idx <= cur {
			return
		}
		if c.rcpt.CompareAndSwap(cur, idx) {
			break
		}
	}
	if idx-c.rcptFlushed.Load() >= ReceiptLag {
		if !c.rcptUrgent.Swap(true) {
			c.rcptArmed.Store(true)
			c.rcptTimer.Reset(0)
		}
		return
	}
	if c.rcptArmed.CompareAndSwap(false, true) {
		c.rcptTimer.Reset(ReceiptDelay)
	}
}

// receiptDue is rcptTimer's function: it writes and flushes a receipt no
// write has carried to the socket, leaving the open batch open.
func (c *Client) receiptDue() {
	c.rcptUrgent.Store(false)
	c.rcptArmed.Store(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.usableLocked() != nil || c.rcpt.Load() <= c.rcptFlushed.Load() {
		return
	}
	if c.receiptLocked() == nil {
		c.flushLocked()
	}
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
	return c.flushLocked()
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
	c.rcptTimer.Stop()
	c.nc.Close()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
