package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// SessionConfig tunes a fault-tolerant session client.
type SessionConfig struct {
	// Addr is the server address; Session the durable session name
	// (scoped to the tenant). Both required.
	Addr    string
	Session string
	// Client carries the per-connection settings (token, tenant, frame
	// limit, TLS, Nack and alarm callbacks).
	Client ClientConfig
	// Window caps the ring of sent-but-unacknowledged events held for
	// retransmit. While connected, a Send into a full window waits for an
	// ack to free a slot; while degraded it returns ErrSendWindowFull at
	// once — typed backpressure, never silent shedding. The server acks
	// every AckEvery events (32 by default) and answers each Ping with its
	// cumulative ack; a Send that must wait pings first, so a window of any
	// size, even one below the server's AckEvery, draws the ack that frees
	// it. Defaults to 1024.
	Window int
	// MaxAttempts is the number of consecutive failed reconnect attempts
	// before the client gives up (StateGaveUp, sticky ErrSessionGaveUp).
	// <= 0 defaults to 8.
	MaxAttempts int
	// BackoffMin and BackoffMax bound the capped exponential backoff
	// between reconnect attempts (first retry waits ~BackoffMin, each
	// later one doubles, capped at BackoffMax, plus up to 50% jitter).
	// Defaults: 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// JitterSeed makes the backoff jitter deterministic for tests; 0
	// derives a fixed default (jitter exists to de-synchronize fleets,
	// determinism within one client is harmless).
	JitterSeed int64
	// OnStateChange observes connected/degraded/gave-up transitions.
	// Called from the reconnect goroutine (and once from Open for the
	// initial connect); must not call back into the SessionClient's
	// Send/Close.
	OnStateChange func(SessionState)
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Window <= 0 {
		c.Window = 1024
	}
	return c
}

// SessionStats snapshots a SessionClient's fault-tolerance counters.
type SessionStats struct {
	// Reconnects counts successful resumes after a connection death;
	// Attempts every dial tried (including failures).
	Reconnects uint64
	Attempts   uint64
	// Retransmits counts events re-sent from the window on resume.
	Retransmits uint64
	// Acked is the server's cumulative decided watermark; Window the
	// events currently banked unacknowledged.
	Acked  uint64
	Window int
	// Recoveries holds one duration per successful reconnect: connection
	// death to resumed-and-retransmitted.
	Recoveries []time.Duration
	// State is the current session state.
	State SessionState
}

// SessionClient is a fault-tolerant wire producer: it wraps Client with a
// durable server-side session, capped-exponential-backoff reconnects, and
// a bounded retransmit window, so a dropped TCP connection is a recoverable
// event instead of silent data loss. It is the session vocabulary's sending
// end over Link, Window and AlarmCursor.
//
// It is the one way to open a producer: the server refuses a connection
// that attaches no session.
//
// Events must carry strictly increasing Seq (ErrSeqOrder otherwise) — the
// cumulative-ack protocol depends on it. Send accepts an event into the
// window and returns nil even while degraded (delivery happens on resume).
// A full window holds Send back while connected, until the server's acks
// free a slot; while degraded it returns ErrSendWindowFull and the caller
// owns the retry (or sheds at the edge).
//
// Alarms arrive on the connection's reader, which drops replayed duplicates
// by index and receipts the rest cumulatively without a write of its own:
// the highest index received rides the next batch close, Flush or Ping as
// one FrameAlarmAck. A quiet session's receipt goes out alone after
// ReceiptDelay, and one ReceiptLag alarms ahead of the last flushed at once,
// so the server's bank drains either way. A receipt still unwritten when the
// connection dies rides the next Resume.
//
// Send/Flush/Close/Stats are safe for concurrent use.
type SessionClient struct {
	cfg    SessionConfig
	link   *Link[*Client]
	alarms AlarmCursor

	mu          sync.Mutex
	room        sync.Cond // on mu: a slot freed, the connection died, or Close ran
	window      Window
	retransmits uint64
	maxFrame    int // the frame limit of the last connection's Welcome
}

// OpenSession dials the first connection and attaches the session. The
// initial dial is synchronous: an unreachable server fails here rather
// than silently banking events.
func OpenSession(cfg SessionConfig) (*SessionClient, error) {
	cfg = cfg.withDefaults()
	if cfg.Session == "" {
		return nil, fmt.Errorf("%w: empty session name", ErrBadFrame)
	}
	s := &SessionClient{cfg: cfg, window: NewWindow(cfg.Window)}
	s.room.L = &s.mu
	s.link = NewLink(LinkVocab[*Client]{Dial: s.dial, Resume: s.resume, Degraded: s.wake,
		ErrClosed: ErrClientClosed, ErrGaveUp: ErrSessionGaveUp},
		cfg.MaxAttempts, NewBackoff(cfg.BackoffMin, cfg.BackoffMax, cfg.JitterSeed), cfg.OnStateChange)
	if err := s.link.Open(); err != nil {
		return nil, err
	}
	return s, nil
}

// dial opens one connection resuming the session at the alarm receipt.
func (s *SessionClient) dial() (*Client, error) {
	cc := s.cfg.Client
	cc.OnNack = func(n Nack) {
		// A Nack is decided: the server's watermark advanced through it.
		s.onAck(n.Seq)
		if s.cfg.Client.OnNack != nil {
			s.cfg.Client.OnNack(n)
		}
	}
	// With the cursor, the connection's reader drops replayed duplicates
	// and receipts what it delivers.
	return dial(s.cfg.Addr, cc, s.cfg.Session, &s.alarms, s.onAck)
}

// onAck prunes the window through the server's cumulative decided seq and
// wakes every Send waiting for room.
func (s *SessionClient) onAck(seq uint64) {
	s.mu.Lock()
	if s.window.Confirm(seq) {
		s.room.Broadcast()
	}
	s.mu.Unlock()
}

// wake releases every Send waiting for room to re-check the session: the
// connection died (degraded) or Close ran.
func (s *SessionClient) wake() {
	s.mu.Lock()
	s.room.Broadcast()
	s.mu.Unlock()
}

// resume installs a fresh connection: prune the window to the server's
// watermark, retransmit the rest of the tail in order, and only then
// publish it for new Sends (the mutex covers the whole splice, so the
// server sees tail-then-new in sequence order).
func (s *SessionClient) resume(conn *Client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxFrame = conn.maxFrame
	wm, _ := conn.ResumeState()
	s.window.Confirm(wm) // no Send waits while degraded: nothing to wake
	for _, be := range s.window.Items() {
		s.retransmits++
		if err := conn.SendRetx(be.Ev); err != nil {
			break // conn died mid-replay; the next resume retries the rest
		}
	}
	conn.Flush()
	if err := s.link.Publish(conn); err != nil {
		conn.Close()
		return err
	}
	return nil
}

// Send accepts one event into the session window and, when a connection is
// live, streams it. Events must carry strictly increasing Seq. While
// degraded the event is banked and delivered on resume. A full window
// waits while the connection is live — pinging first: the Ping closes the
// open batch, flushes, and draws the server's cumulative ack of everything
// sent before it — until an ack or Nack frees a slot; while degraded, or
// once the connection it waited on dies, a full window returns
// ErrSendWindowFull. After Close it returns ErrClientClosed,
// after give-up ErrSessionGaveUp. An event too large to travel alone in an
// EventBatch frame under the server's frame limit returns ErrFrameTooLarge
// and is not banked: retransmitted, it would cut every connection that
// carried it.
func (s *SessionClient) Send(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fitEvent(ev, s.maxFrame); err != nil {
		return err
	}
	for {
		conn, live := s.link.Current()
		if !live {
			if err := s.link.Err(); err != nil {
				return err
			}
		}
		err := s.window.Add(BatchEvent{Link: ev.Seq, Ev: ev})
		if err == nil {
			if live {
				// A write error here is not a loss: the event is in the
				// window and the next resume retransmits it.
				conn.Send(ev)
			}
			return nil
		}
		if !errors.Is(err, ErrSendWindowFull) || !live || conn.Ping() != nil {
			return err
		}
		s.room.Wait()
	}
}

// Flush pushes buffered frames on the live connection, if any.
func (s *SessionClient) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.link.Err(); err != nil {
		return err
	}
	if conn, ok := s.link.Current(); ok {
		conn.Flush()
	}
	return nil
}

// Ping sends a keepalive on the live connection (refreshing the server's
// idle deadline); a no-op while degraded.
func (s *SessionClient) Ping() error {
	if conn, ok := s.link.Current(); ok {
		return conn.Ping()
	}
	return nil
}

// Err reports the sticky terminal state: ErrSessionGaveUp after reconnects
// were exhausted, ErrClientClosed after Close, nil otherwise.
func (s *SessionClient) Err() error { return s.link.Err() }

// Stats snapshots the client's fault-tolerance counters.
func (s *SessionClient) Stats() SessionStats {
	st := s.link.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Retransmits, st.Acked, st.Window = s.retransmits, s.window.Acked(), s.window.Len()
	return st
}

// Pending reports how many events sit in the window unacknowledged.
func (s *SessionClient) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Len()
}

// Close tears the session client down: stops the reconnect machinery,
// releases every waiting Send with ErrClientClosed, closes the live
// connection (a clean Bye retires the server-side session), and waits for
// the watcher goroutines. Idempotent.
func (s *SessionClient) Close() error {
	conn, ok := s.link.Close()
	s.wake()
	if ok && conn != nil {
		conn.Close()
	}
	s.link.Wait()
	return nil
}
