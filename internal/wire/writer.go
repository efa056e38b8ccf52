package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"time"
)

// maxRetainedBuf caps the buffer a Writer keeps for reuse after a write, so
// one large burst (an envelope, a retransmit tail) does not pin its peak.
const maxRetainedBuf = 64 << 10

// Writer is a connection's single outbound path. Senders append encoded
// frames under a mutex into one pending buffer; one goroutine swaps the
// buffer out and writes it whole, so whatever accumulated while the
// previous write was in flight costs one syscall. SendEvents extends the
// open SubmitBatch frame in place, so a burst of one tenant's events
// travels as one frame. Frames reach the socket in the order they were
// sent. All methods are safe for concurrent use.
type Writer struct {
	nc        net.Conn
	timeout   time.Duration
	maxFrames int
	peerMax   int
	onStall   func()
	kick      chan struct{}
	closed    chan struct{}

	mu     sync.Mutex
	space  sync.Cond     // senders waiting for the writer to take the buffer
	buf    []byte        // encoded frames not yet handed to the socket
	frames int           // frames in buf; the cap counts frames, not events
	batch  int           // offset of the open SubmitBatch frame in buf, -1 if none
	tenant string        // open batch's tenant
	events int           // open batch's event count
	wrote  chan struct{} // closed when the write taking the current buffer returns
	failed bool          // a write failed: everything sent from now on is discarded
	done   bool          // Finish was called

	trailer func(dst []byte) []byte // appends frames that ride each write; see SetTrailer
}

// NewWriter starts the writer goroutine for nc. maxFrames caps the frames
// pending at once (Send blocks and TrySend refuses at the cap); peerMaxFrame
// is the peer's frame size limit, which a merged SubmitBatch never exceeds
// (0 where no batches are sent). Each socket write arms writeTimeout as a
// deadline (<= 0: none); onStall, when non-nil, runs once if a write times
// out. Any write failure closes nc so the connection's reader unwinds it.
func NewWriter(nc net.Conn, maxFrames, peerMaxFrame int, writeTimeout time.Duration, onStall func()) *Writer {
	w := &Writer{
		nc:        nc,
		timeout:   writeTimeout,
		maxFrames: max(maxFrames, 1),
		peerMax:   peerMaxFrame,
		onStall:   onStall,
		kick:      make(chan struct{}, 1),
		closed:    make(chan struct{}),
		batch:     -1,
	}
	w.space.L = &w.mu
	go w.loop()
	return w
}

// Conn returns the connection the writer writes to.
func (w *Writer) Conn() net.Conn { return w.nc }

// Done is closed by Finish.
func (w *Writer) Done() <-chan struct{} { return w.closed }

// Finish stops the writer, discards whatever is still pending, releases
// blocked senders, and closes the connection. Idempotent.
func (w *Writer) Finish() {
	w.mu.Lock()
	if !w.done {
		w.done = true
		w.buf, w.batch = nil, -1
		close(w.closed)
		w.space.Broadcast()
	}
	w.mu.Unlock()
	w.nc.Close()
}

// SetTrailer installs f, which the writer goroutine calls with every
// outbound write's bytes just before writing them, to append frames that
// ride that write: a sending end's cumulative receipts travel this way
// instead of as writes of their own. f runs outside the writer's lock and
// must not call back into the writer. Install it before the first frame is
// sent.
func (w *Writer) SetTrailer(f func(dst []byte) []byte) {
	w.mu.Lock()
	w.trailer = f
	w.mu.Unlock()
}

// Nudge wakes the writer goroutine for one write even when nothing is
// pending, so what the trailer has to append still goes out on a quiet
// connection. It never blocks.
func (w *Writer) Nudge() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Send queues one encoded frame, blocking while the frame cap is reached
// but never past a write failure or Finish.
func (w *Writer) Send(frame []byte) { w.send(frame, true) }

// TrySend queues one encoded frame without blocking, reporting whether it
// was accepted. Paths that must never stall behind a slow peer (alarm push,
// ack flushes) use it. A failed or finished writer accepts and discards.
func (w *Writer) TrySend(frame []byte) bool { return w.send(frame, false) }

func (w *Writer) send(frame []byte, block bool) bool {
	w.mu.Lock()
	if !block && w.frames >= w.maxFrames && !w.failed && !w.done {
		w.mu.Unlock()
		return false
	}
	if w.waitLocked() {
		w.commitLocked(append(w.buf, frame...), -1)
		w.mu.Unlock()
	}
	return true
}

// WaitSpace blocks while the frame cap is reached and the writer still
// takes frames.
func (w *Writer) WaitSpace() {
	w.mu.Lock()
	if w.waitLocked() {
		w.mu.Unlock()
	}
}

// SendWait queues one frame and waits, at most timeout, until the write
// carrying it has returned — the final error frame before a teardown.
func (w *Writer) SendWait(frame []byte, timeout time.Duration) {
	w.mu.Lock()
	if !w.waitLocked() {
		return
	}
	if w.wrote == nil {
		w.wrote = make(chan struct{})
	}
	wrote := w.wrote
	w.commitLocked(append(w.buf, frame...), -1)
	w.mu.Unlock()
	select {
	case <-wrote:
	case <-w.closed:
	case <-time.After(timeout):
	}
}

// SendEvents queues events for tenant inside SubmitBatch frames under one
// acquisition of the writer's lock. An event joins the open batch when that
// batch is the last pending frame, belongs to tenant, holds fewer than
// maxBatch events and stays within the peer's frame limit with the event
// added; the batch's length and count are patched in place. Otherwise a new
// batch opens, blocking like Send at the frame cap. Every other kind of
// frame closes the open batch, so events never overtake, or are overtaken
// by, a frame sent between them. It returns how many events were queued,
// fewer than len(bes) only with the error of an event that cannot be
// encoded; a failed or finished writer accepts and discards them all.
func (w *Writer) SendEvents(tenant string, bes []BatchEvent, maxBatch int) (int, error) {
	limit := min(maxBatch, math.MaxUint16)
	w.mu.Lock()
	for i, be := range bes {
		if w.batch >= 0 && w.tenant == tenant && w.events < limit {
			if buf, err := appendBatchEvent(w.buf, be); err == nil && len(buf)-w.batch-headerLen <= w.peerMax {
				w.events++
				// The count follows the length, the type byte and the tenant.
				binary.BigEndian.PutUint16(buf[w.batch+headerLen+3+len(tenant):], uint16(w.events))
				w.buf = frame(buf, w.batch+headerLen)
				continue
			}
		}
		if !w.waitLocked() {
			return len(bes), nil
		}
		at := len(w.buf)
		buf, err := AppendSubmitBatch(w.buf, tenant, bes[i:i+1])
		if err != nil {
			w.mu.Unlock()
			return i, err
		}
		w.tenant, w.events = tenant, 1
		w.commitLocked(buf, at)
	}
	w.mu.Unlock()
	return len(bes), nil
}

// waitLocked blocks while the frame cap is reached and reports whether the
// writer still takes frames; on false it has released w.mu.
func (w *Writer) waitLocked() bool {
	for w.frames >= w.maxFrames && !w.failed && !w.done {
		w.space.Wait()
	}
	if w.failed || w.done {
		w.mu.Unlock()
		return false
	}
	return true
}

// commitLocked installs buf, the pending buffer with one more frame
// appended, and batch, the offset of that frame if it is an open
// SubmitBatch (-1 otherwise), and wakes the writer goroutine if the buffer
// was empty. The kick never blocks, so it is sent under w.mu.
func (w *Writer) commitLocked(buf []byte, batch int) {
	wake := len(w.buf) == 0
	w.buf, w.batch = buf, batch
	w.frames++
	if wake {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
}

func (w *Writer) loop() {
	var out []byte
	for {
		select {
		case <-w.kick:
		case <-w.closed:
			return
		}
		w.mu.Lock()
		out, w.buf = w.buf, out[:0]
		w.frames, w.batch = 0, -1
		wrote := w.wrote
		w.wrote = nil
		trailer := w.trailer
		if w.failed || w.done {
			trailer = nil
		}
		w.space.Broadcast()
		w.mu.Unlock()
		if trailer != nil {
			out = trailer(out)
		}
		if len(out) > 0 {
			if w.timeout > 0 {
				w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
			}
			if _, err := w.nc.Write(out); err != nil {
				w.mu.Lock()
				w.failed = true
				w.buf, w.batch = nil, -1
				w.space.Broadcast()
				w.mu.Unlock()
				if errors.Is(err, os.ErrDeadlineExceeded) && w.onStall != nil {
					w.onStall()
				}
				w.nc.Close() // wake the reader; it finishes the connection
			}
		}
		if wrote != nil {
			close(wrote)
		}
		if cap(out) > maxRetainedBuf {
			out = nil
		}
	}
}
