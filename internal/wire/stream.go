package wire

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The resumable-stream core under both exactly-once hops, producer → wire
// server (sessions) and router → cluster worker (shard links): Endpoint
// and Receiver on the receiving end, Window, AlarmCursor and Link on the
// sending end. It is parameterised only by what differs between the two
// vocabularies: frame encoders, the sequence field, and the backend call.
// DESIGN.md §9 "Resumable stream" is the protocol.

// Refusal is a protocol or handshake error answered with the vocabulary's
// error frame (Nack, ShardErr) before the connection closes.
type Refusal struct {
	Code   Code
	Detail string
}

func (r Refusal) Error() string { return fmt.Sprintf("%s: %s", r.Code, r.Detail) }

// Protocolf builds a CodeProtocol refusal.
func Protocolf(format string, args ...any) Refusal {
	return Refusal{Code: CodeProtocol, Detail: fmt.Sprintf(format, args...)}
}

// Handler is one accepted connection's vocabulary.
type Handler interface {
	// Hello reads and answers the handshake; any error refuses the
	// connection, a Refusal with a final error frame.
	Hello(r *Reader) error
	// Frame handles one frame after the handshake; any error closes the
	// connection, a Refusal with a final error frame.
	Frame(t FrameType, p []byte) error
	// ErrorFrame encodes the final error frame answering a refusal.
	ErrorFrame(Refusal) ([]byte, error)
	// Teardown unwinds the connection's registrations once its writer has
	// finished.
	Teardown()
	// String names the connection in log lines.
	String() string
}

// Endpoint is the accept side shared by the wire server and the cluster
// worker, with the counters of every stream it receives. Set the
// settings, then WithDefaults, before the first Serve; all methods are
// safe for concurrent use.
type Endpoint struct {
	// Name prefixes log lines and errors.
	Name string
	// HelloTimeout bounds a fresh connection's silence before its
	// handshake (default 10s); IdleTimeout evicts a connection that
	// delivers no frame for that long (2m); WriteTimeout bounds each socket
	// write (30s).
	HelloTimeout, IdleTimeout, WriteTimeout time.Duration
	// MaxFrame caps inbound frames; OutBuffer caps each connection's
	// pending outbound frames; AckEvery is the cumulative-ack cadence
	// (default 32); AlarmRing caps each Receiver's alarm bank.
	MaxFrame, OutBuffer, AckEvery, AlarmRing int
	Logf                                     func(format string, args ...any)

	// Accepted counts every connection accepted, Active those past their
	// handshake and not yet torn down; EvictedIdle those cut by the read
	// idle or write deadline; AuthFailures refused handshakes.
	Accepted, EvictedIdle, AuthFailures atomic.Uint64
	Active                              atomic.Int64
	// Events, Nacks and Duplicates count every decided item exactly once;
	// the alarm counters are the banks' (see Receiver.Push). Receipts counts
	// the alarm receipt frames the peers sent: cumulative, coalesced onto
	// their writes, so far fewer than the alarms they confirm.
	Events, Nacks, Duplicates                           atomic.Uint64
	Alarms, AlarmsBuffered, AlarmReplays, AlarmsDropped atomic.Uint64
	Receipts                                            atomic.Uint64

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
}

// WithDefaults fills the zero timeouts and ack cadence and returns e.
func (e *Endpoint) WithDefaults() *Endpoint {
	if e.HelloTimeout <= 0 {
		e.HelloTimeout = 10 * time.Second
	}
	if e.IdleTimeout <= 0 {
		e.IdleTimeout = 2 * time.Minute
	}
	if e.WriteTimeout <= 0 {
		e.WriteTimeout = 30 * time.Second
	}
	if e.AckEvery <= 0 {
		e.AckEvery = 32
	}
	return e
}

// Printf logs one line, prefixed with Name, when Logf is set.
func (e *Endpoint) Printf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(e.Name+": "+format, args...)
	}
}

// Conns reports the live connections, including ones still in their
// handshake.
func (e *Endpoint) Conns() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.conns)
}

// Serve accepts connections on ln until the listener fails or the endpoint
// closes (a clean Close returns nil), running each through open's Handler.
func (e *Endpoint) Serve(ln net.Listener, open func(*Writer) Handler) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: closed", e.Name)
	}
	if e.lns == nil {
		e.lns = make(map[net.Listener]struct{})
	}
	e.lns[ln] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.lns, ln)
		e.mu.Unlock()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			e.mu.Lock()
			defer e.mu.Unlock()
			if e.closed {
				return nil
			}
			return err
		}
		e.Accepted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.handle(nc, open)
		}()
	}
}

// Close stops accepting and closes every live connection, including ones
// still in their handshake. It reports false when already closed.
func (e *Endpoint) Close() bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.closed = true
	for ln := range e.lns {
		ln.Close()
	}
	e.mu.Unlock()
	e.CloseConns()
	return true
}

// CloseConns closes every live connection, including ones still in their
// handshake; the endpoint keeps accepting unless it is closed.
func (e *Endpoint) CloseConns() {
	e.mu.Lock()
	conns := make([]net.Conn, 0, len(e.conns))
	for nc := range e.conns {
		conns = append(conns, nc)
	}
	e.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
}

func (e *Endpoint) handle(nc net.Conn, open func(*Writer) Handler) {
	var h Handler
	w := NewWriter(nc, e.OutBuffer, 0, e.WriteTimeout, func() {
		e.EvictedIdle.Add(1)
		e.Printf("evicting %s: write stalled past %v", h, e.WriteTimeout)
	})
	h = open(w)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		w.Finish()
		return
	}
	if e.conns == nil {
		e.conns = make(map[net.Conn]struct{})
	}
	e.conns[nc] = struct{}{}
	e.mu.Unlock()

	r := NewReader(nc, e.MaxFrame)
	nc.SetReadDeadline(time.Now().Add(e.HelloTimeout))
	authed := false
	if err := h.Hello(r); err != nil {
		// Counted before the refusal is queued: a peer that has read it
		// finds it in the stats.
		e.AuthFailures.Add(1)
		refuse(h, w, err)
	} else {
		e.Active.Add(1)
		authed = true
		e.readLoop(h, w, r)
	}
	w.Finish()
	h.Teardown()
	e.mu.Lock()
	delete(e.conns, nc)
	e.mu.Unlock()
	// Only now has the connection let go of its streams: a caller that saw
	// Active drop finds alarms banked, not pushed.
	if authed {
		e.Active.Add(-1)
	}
}

// refuse answers err with h's final error frame when it carries one, and
// waits (bounded) for it to reach the socket before the teardown.
func refuse(h Handler, w *Writer, err error) {
	var ref Refusal
	if errors.Is(err, ErrFrameTooLarge) {
		ref = Protocolf("%v", err)
	} else if !errors.As(err, &ref) {
		return
	}
	if frame, ferr := h.ErrorFrame(ref); ferr == nil {
		w.SendWait(frame, time.Second)
	}
}

func (e *Endpoint) readLoop(h Handler, w *Writer, r *Reader) {
	nc := w.Conn()
	var deadlineAt time.Time
	for {
		// Re-arm the idle deadline lazily: a syscall only when more than
		// half the window has burned, so a hot stream pays ~one
		// SetReadDeadline per half-window, not one per frame.
		if now := time.Now(); deadlineAt.Sub(now) <= e.IdleTimeout/2 {
			deadlineAt = now.Add(e.IdleTimeout)
			nc.SetReadDeadline(deadlineAt)
		}
		t, p, err := r.Next()
		if err == nil {
			err = h.Frame(t, p)
			if err == nil {
				continue
			}
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			e.EvictedIdle.Add(1)
			e.Printf("evicting %s: no frame in %v", h, e.IdleTimeout)
		} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			e.Printf("connection %s: %v", h, err)
		}
		refuse(h, w, err)
		return
	}
}

// Vocab is one vocabulary's side of Decide for items of type T: the
// sequence field, the backend call, and the Nack and Ack encoders.
type Vocab[T any] interface {
	Seq(item *T) uint64
	// Submit hands items to the backend in order, stopping at the first
	// refusal: it returns how many were admitted and, when fewer than
	// len(items), the error refusing items[admitted].
	Submit(items []T) (admitted int, err error)
	AppendNack(dst []byte, item *T, err error) []byte
	AppendAck(dst []byte, watermark uint64) []byte
}

// Receiver is one stream's durable receiving end — a wire session or a
// worker tenant — that outlives any one connection: the decided watermark
// for exactly-once admission and the bank of unconfirmed alarms. The zero
// value is ready to use.
//
// Two mutexes split the two concerns deliberately: evMu is held across the
// backend call (which may block under a Block backpressure policy), and
// the alarm path — run on the tenant's stream thread, which must never wait
// behind a blocked submit — takes only alarmMu.
type Receiver struct {
	evMu      sync.Mutex
	watermark uint64 // highest sequence decided (admitted or nacked)
	sinceAck  int

	alarmMu  sync.Mutex
	w        *Writer // attached writer; nil while detached
	alarmSeq uint64  // last assigned alarm index
	sent     uint64  // highest index handed to w
	ring     fifo[bankedAlarm]
	tail     []byte // scratch joining a multi-alarm flush into one write
	draining bool   // a drain goroutine is flushing what a full queue refused
}

// bankedAlarm is one bank entry: its index and the encoded frame, so a
// replay is a straight enqueue. The frame is the encoder's one allocation;
// the bank keeps it until a receipt prunes the entry.
type bankedAlarm struct {
	idx   uint64
	frame []byte
}

// Decide is the one admission path of an event frame, items in frame
// order. Under one hold of r's event lock it counts the prefix at or below
// the watermark as duplicates (a retransmit overlap: decided before, never
// re-admitted), refuses a frame whose remaining sequence numbers do not
// increase (ErrSeqOrder: the caller closes the connection), hands the rest
// to the backend, resuming past each refusal with one Nack per refused
// item, and advances the watermark past every decided item. Every item
// received, duplicates included, counts toward AckEvery, and the frame
// earns at most one cumulative Ack. It returns out with the Nack and Ack
// frames to send. Counters move before the peer can see a result: the items
// count as admitted before the backend gets them (an alarm one raises may
// reach the peer before Submit returns), a refusal takes its item back, and
// the frames are sent afterwards.
func Decide[T any, V Vocab[T]](e *Endpoint, r *Receiver, v V, items []T, out []byte) ([]byte, error) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	dup := 0
	for dup < len(items) && v.Seq(&items[dup]) <= r.watermark {
		dup++
	}
	last := r.watermark
	for i := dup; i < len(items); i++ {
		s := v.Seq(&items[i])
		if s <= last {
			return out, ErrSeqOrder
		}
		last = s
	}
	e.Duplicates.Add(uint64(dup))
	// evMu stays held across the backend call: a zombie connection racing
	// the resumed one serializes here, keeping admission exactly-once and
	// in sequence order. The alarm path never takes evMu, so a Block policy
	// waiting out a full queue cannot deadlock the stream thread.
	fresh := items[dup:]
	e.Events.Add(uint64(len(fresh)))
	for len(fresh) > 0 {
		n, err := v.Submit(fresh)
		if err == nil {
			break
		}
		n = min(n, len(fresh)-1)
		e.Events.Add(^uint64(0)) // the refused item
		e.Nacks.Add(1)
		out = v.AppendNack(out, &fresh[n], err)
		fresh = fresh[n+1:]
	}
	r.watermark = last
	r.sinceAck += len(items)
	if r.sinceAck >= e.AckEvery {
		r.sinceAck = 0
		out = v.AppendAck(out, r.watermark)
	}
	return out, nil
}

// Ack returns the decided watermark, restarting the ack cadence, and the
// last assigned alarm index. The caller sends the watermark as a
// cumulative ack (a Ping's, or inside a resume or control reply), so a
// tail below AckEvery never sits unacknowledged.
func (r *Receiver) Ack() (watermark, alarmIdx uint64) {
	r.evMu.Lock()
	r.sinceAck = 0
	watermark = r.watermark
	r.evMu.Unlock()
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	return watermark, r.alarmSeq
}

// Push banks one alarm, encoded by enc under the next index, and pushes it
// to the attached writer. It runs on the tenant's stream thread and never
// blocks for queue space. A full bank evicts its oldest entry (every entry
// is unconfirmed, so that is a real loss, counted in AlarmsDropped).
// Without a writer, or when its queue is full, the alarm counts as buffered;
// it reports true in the second case. A buffered alarm waits for the next
// attach, or, refused by a full queue, is flushed by a drain goroutine
// (at most one per receiver) as soon as the writer has room, so a burst
// that ends on a full queue still reaches the peer.
func (r *Receiver) Push(e *Endpoint, a Alarm, enc func(dst []byte, idx uint64, a Alarm) ([]byte, error)) (queueFull bool) {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	r.alarmSeq++
	frame, err := enc(nil, r.alarmSeq, a)
	if err != nil {
		e.AlarmsDropped.Add(1)
		return false
	}
	if r.ring.len() >= e.AlarmRing {
		r.ring.drop(1)
		e.AlarmsDropped.Add(1)
	}
	r.ring.push(bankedAlarm{idx: r.alarmSeq, frame: frame})
	if r.w == nil {
		e.AlarmsBuffered.Add(1)
		return false
	}
	n := r.flushLocked()
	if n < 0 {
		e.AlarmsBuffered.Add(1)
		if !r.draining {
			r.draining = true
			go r.drain(e)
		}
		return true
	}
	e.Alarms.Add(1)
	e.AlarmReplays.Add(uint64(n - 1))
	return false
}

// flushLocked hands the attached writer, as one write, every banked alarm
// it has not been given — in index order, so no alarm overtakes an earlier
// one the peer's index dedup would then discard. It never waits for queue
// space: it reports how many alarms went out, or -1 when the writer's
// queue refused them (they stay unsent for the next push or attach).
func (r *Receiver) flushLocked() int {
	ring := r.ring.items()
	i := len(ring)
	for i > 0 && ring[i-1].idx > r.sent {
		i--
	}
	tail := ring[i:]
	if len(tail) == 0 {
		return 0
	}
	frame := tail[0].frame
	if len(tail) > 1 {
		// The writer copies what it is given, so one scratch buffer,
		// dropped once a burst outgrows the writer's own retention cap,
		// serves every flush.
		frame = r.tail[:0]
		for _, b := range tail {
			frame = append(frame, b.frame...)
		}
		if r.tail = frame[:0]; cap(r.tail) > maxRetainedBuf {
			r.tail = nil
		}
	}
	if !r.w.TrySend(frame) {
		return -1
	}
	r.sent = tail[len(tail)-1].idx
	return len(tail)
}

// drain flushes the alarms a full queue refused, following the attached
// writer, until they go out or the receiver is detached. Push starts it.
// A finished writer accepts and discards, so a drain never outlives the
// connection it waits on.
func (r *Receiver) drain(e *Endpoint) {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	for r.w != nil {
		if r.replayLocked(e, r.w) {
			break
		}
	}
	r.draining = false
}

// replayLocked hands w every banked alarm it has not been given, counted
// as replays. When w's queue is full it waits for space with alarmMu
// released, so the tenant's stream thread never waits behind it; a push
// meanwhile flushes the replay ahead of its own alarm. It reports false
// when w was detached or replaced before the replay went out.
func (r *Receiver) replayLocked(e *Endpoint, w *Writer) bool {
	for r.w == w {
		if n := r.flushLocked(); n >= 0 {
			e.AlarmReplays.Add(uint64(n))
			return true
		}
		r.alarmMu.Unlock()
		w.WaitSpace()
		r.alarmMu.Lock()
	}
	return false
}

// Attach prunes the bank through the peer's receipt, attaches w, and
// replays every remaining alarm on it (the peer dedups by index). Send a
// resume reply before attaching: the replay follows it. A full queue makes
// the replay wait for space (see replayLocked); a newer attach takes the
// replay over.
func (r *Receiver) Attach(e *Endpoint, w *Writer, receipt uint64) {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	r.confirmLocked(receipt)
	r.w, r.sent = w, 0
	r.replayLocked(e, w)
}

// Detach releases w if it is still the attached writer (a newer connection
// may have attached meanwhile) and reports whether it was.
func (r *Receiver) Detach(w *Writer) bool {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	if r.w != w {
		return false
	}
	r.w = nil
	return true
}

// Attached reports whether w is the attached writer.
func (r *Receiver) Attached(w *Writer) bool {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	return r.w == w
}

// Banked reports how many alarms the bank holds unconfirmed.
func (r *Receiver) Banked() int {
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	return r.ring.len()
}

// Confirm prunes the bank through a cumulative alarm receipt.
func (r *Receiver) Confirm(idx uint64) {
	r.alarmMu.Lock()
	r.confirmLocked(idx)
	r.alarmMu.Unlock()
}

// confirmLocked prunes through idx. A receipt beyond the last assigned
// index was issued by a lost incarnation of the stream (a restarted server
// created this one afresh) and prunes nothing.
func (r *Receiver) confirmLocked(idx uint64) {
	if idx > r.alarmSeq {
		return
	}
	ring := r.ring.items()
	n := 0
	for n < len(ring) && ring[n].idx <= idx {
		n++
	}
	r.ring.drop(n)
}

// Window is a sending end's bounded retransmit window: the events sent but
// not yet known decided, in ascending sequence — a BatchEvent's Link (a
// session producer sets it to the event's own Seq). A cumulative Ack, a
// Nack (a refused event is decided too) and a resume watermark all prune it
// through Confirm. It is not safe for concurrent use.
type Window struct {
	limit int
	items fifo[BatchEvent]
	acked uint64 // highest sequence known decided
	last  uint64 // highest sequence added (or confirmed)
}

// NewWindow returns an empty window holding at most limit events.
func NewWindow(limit int) Window { return Window{limit: limit} }

// Add appends an event whose sequence must exceed every earlier one; a full
// window refuses it with ErrSendWindowFull.
func (w *Window) Add(be BatchEvent) error {
	if be.Link <= w.last {
		return fmt.Errorf("%w: seq %d after %d", ErrSeqOrder, be.Link, w.last)
	}
	if w.Full() {
		return ErrSendWindowFull
	}
	w.last = be.Link
	w.items.push(be)
	return nil
}

// Confirm prunes every event at or below wm, the peer's decided watermark,
// and reports whether it advanced. Later events must sequence above it.
func (w *Window) Confirm(wm uint64) bool {
	if wm <= w.acked {
		return false
	}
	w.acked, w.last = wm, max(w.last, wm)
	items := w.items.items()
	n := 0
	for n < len(items) && items[n].Link <= wm {
		n++
	}
	w.items.drop(n)
	return true
}

// Full reports whether the window is at its limit.
func (w *Window) Full() bool { return w.items.len() >= w.limit }

// Items returns the unconfirmed events, oldest first; valid until the next
// Add or Confirm.
func (w *Window) Items() []BatchEvent { return w.items.items() }

// Len reports how many events are unconfirmed.
func (w *Window) Len() int { return w.items.len() }

// Acked reports the highest sequence known decided; Last the highest added.
func (w *Window) Acked() uint64 { return w.acked }
func (w *Window) Last() uint64  { return w.last }

// fifo is a first-in, first-out slice whose drops from the front advance a
// head offset instead of moving the survivors. The survivors move down only
// when a push finds the backing array full and at least a fifth of it
// dropped, so a drop costs O(dropped), a push amortized O(1) (at most four
// moves per dropped item), and the array grows only when more than four
// fifths of it are live.
type fifo[T any] struct {
	buf  []T // buf[head:] are the items, oldest first
	head int
}

// items returns the items, oldest first; valid until the next push or drop.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends v, first moving the items to the front of a full backing
// array when enough of it was dropped.
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= q.len()/4 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// drop removes the n oldest items, clearing their slots so the array keeps
// nothing they reference alive.
func (q *fifo[T]) drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// AlarmCursor is a sending end's alarm receipt cursor: it dedups alarms by
// index (a replay may overlap deliveries) and holds the receipt to echo
// when the stream resumes.
type AlarmCursor struct {
	mu  sync.Mutex
	idx uint64
}

// Receive advances the cursor to idx and reports whether the alarm is new;
// deliver it and confirm idx to the peer only then.
func (c *AlarmCursor) Receive(idx uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx <= c.idx {
		return false
	}
	c.idx = idx
	return true
}

// Index reports the highest alarm index received.
func (c *AlarmCursor) Index() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx
}

// Restart rewinds the cursor when the peer's resume reply reports a last
// index below it: the peer lost the stream and numbers a fresh one from 1.
// Call it before the connection delivers any alarm.
func (c *AlarmCursor) Restart(peerIdx uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if peerIdx < c.idx {
		c.idx = 0
	}
}

// Backoff is capped exponential backoff with deterministic jitter.
type Backoff struct {
	min, max time.Duration
	rng      *rand.Rand
}

// NewBackoff returns a backoff starting at min, doubling per attempt up to
// max, with up to 50% jitter drawn from seed. Zero values select 50ms, 5s
// and seed 1 (jitter de-synchronizes fleets; determinism within one
// sending end is harmless).
func NewBackoff(min, max time.Duration, seed int64) Backoff {
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if seed == 0 {
		seed = 1
	}
	return Backoff{min: min, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay is the wait before reconnect attempt n (counted from 0). Not safe
// for concurrent use.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.min
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	d = min(d, b.max)
	return d + time.Duration(b.rng.Int63n(int64(d)/2+1))
}

// SessionState is a sending end's connection health, reported through
// OnStateChange and in stats.
type SessionState int

const (
	// StateConnected: a live connection is attached and resumed.
	StateConnected SessionState = iota
	// StateDegraded: the connection died; reconnect attempts are running
	// and sends bank in the retransmit window meanwhile.
	StateDegraded
	// StateGaveUp: MaxAttempts consecutive reconnects failed; the sending
	// end is terminally down.
	StateGaveUp
)

func (s SessionState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateDegraded:
		return "degraded"
	case StateGaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DialStream opens a sending end's connection: TCP, then TLS when tlsCfg
// is set (ServerName filled from addr unless verification is off), then
// hello written and the first reply frame read, all within timeout. The
// deadline stays armed for the caller's remaining handshake; on error the
// connection is closed.
func DialStream(addr string, tlsCfg *tls.Config, timeout time.Duration, hello []byte, maxFrame int) (net.Conn, *Reader, FrameType, []byte, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	if tlsCfg != nil {
		if host, _, herr := net.SplitHostPort(addr); herr == nil && tlsCfg.ServerName == "" && !tlsCfg.InsecureSkipVerify {
			tlsCfg = tlsCfg.Clone()
			tlsCfg.ServerName = host
		}
		tc := tls.Client(nc, tlsCfg)
		if err := tc.Handshake(); err != nil {
			nc.Close()
			return nil, nil, 0, nil, fmt.Errorf("wire: tls handshake with %s: %w", addr, err)
		}
		nc = tc
	}
	r := NewReader(nc, maxFrame)
	var t FrameType
	var p []byte
	if _, err = nc.Write(hello); err == nil {
		t, p, err = r.Next()
	}
	if err != nil {
		nc.Close()
		return nil, nil, 0, nil, fmt.Errorf("wire: handshake with %s: %w", addr, err)
	}
	return nc, r, t, p, nil
}

// LinkConn is a Link's connection: comparable, with a channel closed when
// the connection is dead.
type LinkConn interface {
	comparable
	Done() <-chan struct{}
}

// LinkVocab is what a Link needs from its vocabulary.
type LinkVocab[C LinkConn] struct {
	// Dial opens and handshakes one connection.
	Dial func() (C, error)
	// Resume readies a dialed connection — window prune and retransmit,
	// per-stream resumes — and installs it with Link.Publish. On error it
	// must discard the connection.
	Resume func(C) error
	// Degraded, when non-nil, runs each time the live connection dies,
	// once it is no longer published; GaveUp, when non-nil, runs once the
	// link gives up.
	Degraded, GaveUp func()
	// ErrClosed and ErrGaveUp are the errors Err reports.
	ErrClosed, ErrGaveUp error
}

// Link is a sending end's connection lifecycle: the live connection, its
// state, and the reconnect loop that replaces it when it dies — capped
// exponential backoff between attempts, MaxAttempts consecutive failures
// give up. All methods are safe for concurrent use.
type Link[C LinkConn] struct {
	v           LinkVocab[C]
	maxAttempts int
	backoff     Backoff
	onState     func(SessionState)
	closeC      chan struct{}
	wg          sync.WaitGroup

	// live, closed and gaveUp change under mu and are read without it:
	// every send checks them.
	live           atomic.Value // C: the published connection, zero while down
	closed, gaveUp atomic.Bool

	mu         sync.Mutex
	state      SessionState
	up         bool // a connection was published: the next one is a reconnect
	died       time.Time
	attempts   uint64
	reconnects uint64
	recoveries []time.Duration
}

// NewLink returns a link with no connection; Open dials the first.
// maxAttempts <= 0 selects 8.
func NewLink[C LinkConn](v LinkVocab[C], maxAttempts int, b Backoff, onState func(SessionState)) *Link[C] {
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	return &Link[C]{v: v, maxAttempts: maxAttempts, backoff: b, onState: onState,
		closeC: make(chan struct{}), state: StateDegraded}
}

func (l *Link[C]) notify(st SessionState) {
	if l.onState != nil {
		l.onState(st)
	}
}

// Open dials and resumes the first connection synchronously: an
// unreachable peer fails here rather than silently banking.
func (l *Link[C]) Open() error { return l.connect() }

// connect dials and resumes one connection and watches it for its death.
func (l *Link[C]) connect() error {
	l.mu.Lock()
	l.attempts++
	l.mu.Unlock()
	c, err := l.v.Dial()
	if err == nil {
		err = l.v.Resume(c)
	}
	if err != nil {
		return err
	}
	l.notify(StateConnected)
	l.Go(func() { l.watch(c) })
	return nil
}

// Publish installs c as the live connection, counting a reconnect after
// the first, under the same lock as the state flip. A closed link or a
// connection already dead is refused.
func (l *Link[C]) Publish(c C) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return l.v.ErrClosed
	}
	select {
	case <-c.Done():
		return errors.New("wire: connection died before it was published")
	default:
	}
	l.state = StateConnected
	l.live.Store(c)
	if l.up {
		l.reconnects++
		l.recoveries = append(l.recoveries, time.Since(l.died))
	}
	l.up = true
	return nil
}

// watch turns c's death into the reconnect loop.
func (l *Link[C]) watch(c C) {
	select {
	case <-c.Done():
	case <-l.closeC:
		return
	}
	l.mu.Lock()
	if cur, _ := l.live.Load().(C); l.closed.Load() || cur != c {
		l.mu.Unlock()
		return
	}
	var zero C
	l.state, l.died = StateDegraded, time.Now()
	l.live.Store(zero)
	l.mu.Unlock()
	if l.v.Degraded != nil {
		l.v.Degraded()
	}
	l.notify(StateDegraded)
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(l.backoff.Delay(attempt)):
		case <-l.closeC:
			return
		}
		if l.connect() == nil {
			return
		}
		if l.Err() != nil {
			return
		}
		if attempt+1 >= l.maxAttempts {
			l.mu.Lock()
			l.gaveUp.Store(true)
			l.state = StateGaveUp
			l.mu.Unlock()
			if l.v.GaveUp != nil {
				l.v.GaveUp()
			}
			l.notify(StateGaveUp)
			return
		}
	}
}

// Go runs f in a goroutine that Wait waits for.
func (l *Link[C]) Go(f func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		f()
	}()
}

// Current returns the live connection, if any.
func (l *Link[C]) Current() (C, bool) {
	var zero C
	c, _ := l.live.Load().(C)
	return c, c != zero
}

// Err reports the sticky terminal state: ErrGaveUp, ErrClosed, or nil.
func (l *Link[C]) Err() error {
	switch {
	case l.gaveUp.Load():
		return l.v.ErrGaveUp
	case l.closed.Load():
		return l.v.ErrClosed
	}
	return nil
}

// Closing is closed by Close.
func (l *Link[C]) Closing() <-chan struct{} { return l.closeC }

// Stats snapshots the link's part of SessionStats: State, Attempts (every
// dial), Reconnects (successful ones after a death) and Recoveries (one
// death-to-publish duration per reconnect).
func (l *Link[C]) Stats() SessionStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return SessionStats{State: l.state, Attempts: l.attempts, Reconnects: l.reconnects,
		Recoveries: append([]time.Duration(nil), l.recoveries...)}
}

// Close stops the reconnect machinery and returns the live connection for
// the caller to close; ok is false when the link was already closed. Call
// Wait afterwards.
func (l *Link[C]) Close() (c C, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return c, false
	}
	l.closed.Store(true)
	var zero C
	c, _ = l.live.Load().(C)
	l.live.Store(zero)
	close(l.closeC)
	return c, true
}

// Wait waits for the goroutines started with Go.
func (l *Link[C]) Wait() { l.wg.Wait() }
