package wire

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionWatermarkExactlyOnce drives the duplicate-admission mechanics
// deterministically, no timing: a first session connection delivers 1..10,
// a second resumes and replays 5..10 before continuing with 11..15. The
// backend must admit each Seq exactly once and the replays must show up as
// retransmits + duplicates, never as re-admissions.
func TestSessionWatermarkExactlyOnce(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 4 })

	c1, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if wm, _ := c1.ResumeState(); wm != 0 {
		t.Fatalf("fresh session watermark = %d", wm)
	}
	for i := 1; i <= 10; i++ {
		if err := c1.Send(Event{Seq: uint64(i), Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.events) == 10
	})

	// Second connection resumes the same session: the server reports the
	// decided watermark, and replayed events below it are dropped.
	c2, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if wm, _ := c2.ResumeState(); wm != 10 {
		t.Fatalf("resumed watermark = %d, want 10", wm)
	}
	for i := 5; i <= 10; i++ {
		if err := c2.SendRetx(Event{Seq: uint64(i), Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 11; i <= 15; i++ {
		if err := c2.Send(Event{Seq: uint64(i), Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second batch", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.events) == 15
	})
	b.mu.Lock()
	seen := map[uint64]int{}
	for _, ev := range b.events {
		seen[ev.Seq]++
	}
	b.mu.Unlock()
	for i := uint64(1); i <= 15; i++ {
		if seen[i] != 1 {
			t.Errorf("seq %d admitted %d times", i, seen[i])
		}
	}
	st := s.Stats()
	if st.Events != 15 || st.Duplicates != 6 || st.Retransmits != 6 {
		t.Errorf("stats = events %d dups %d retx %d, want 15/6/6", st.Events, st.Duplicates, st.Retransmits)
	}
	if st.Resumes != 2 {
		t.Errorf("resumes = %d, want 2", st.Resumes)
	}
	c1.Close()
}

// TestSessionAlarmBankAndReplay: alarms raised while no connection is
// attached are banked in the session ring and replayed on the next resume;
// nothing is lost, nothing delivered twice.
func TestSessionAlarmBankAndReplay(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)

	// One cursor across both connections, as a SessionClient keeps it: the
	// resume carries the receipt of what the first connection delivered.
	var cursor AlarmCursor
	alarms1 := make(chan Alarm, 16)
	c1, err := dial(addr, ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { alarms1 <- a }}, "prod", &cursor, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alarm route", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sinks) == 1
	})
	if !b.push("home-0", Alarm{Seq: 1, Score: 0.9}) {
		t.Fatal("no sink")
	}
	var first Alarm
	select {
	case first = <-alarms1:
	case <-time.After(10 * time.Second):
		t.Fatal("live alarm not delivered")
	}
	if first.Seq != 1 {
		t.Fatalf("alarm = %+v", first)
	}
	// Kill the connection without a Bye: the session must survive and
	// keep the route, banking alarms raised in the gap.
	c1.nc.Close()
	<-c1.Done()
	waitFor(t, "connection teardown", func() bool {
		st := s.Stats()
		return st.ActiveConns == 0 && st.Sessions == 1
	})
	b.mu.Lock()
	routed := len(b.sinks) == 1
	b.mu.Unlock()
	if !routed {
		t.Fatal("session lost the alarm route on connection death")
	}
	b.push("home-0", Alarm{Seq: 2, Score: 0.8})
	b.push("home-0", Alarm{Seq: 3, Score: 0.7})
	waitFor(t, "banked alarms", func() bool { return s.Stats().AlarmsBuffered == 2 })

	// Resume confirming receipt of alarm idx 1: only 2 and 3 replay.
	alarms2 := make(chan Alarm, 16)
	c2, err := dial(addr, ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { alarms2 <- a }}, "prod", &cursor, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var got []uint64
	for len(got) < 2 {
		select {
		case a := <-alarms2:
			got = append(got, a.Seq)
		case <-time.After(10 * time.Second):
			t.Fatalf("replay stalled after %v", got)
		}
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("replayed seqs = %v, want [2 3]", got)
	}
	select {
	case a := <-alarms2:
		t.Fatalf("extra alarm %+v: confirmed alarm replayed", a)
	case <-time.After(50 * time.Millisecond):
	}
	st := s.Stats()
	if st.AlarmReplays != 2 || st.AlarmsDropped != 0 {
		t.Errorf("replays %d drops %d, want 2/0", st.AlarmReplays, st.AlarmsDropped)
	}
}

// TestSessionByeRetires: a clean Bye deletes the session and restores the
// tenant's default alarm delivery.
func TestSessionByeRetires(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session attach", func() bool { return s.Stats().Sessions == 1 })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session retire", func() bool { return s.Stats().Sessions == 0 })
	waitFor(t, "route cleanup", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sinks) == 0
	})
}

// killServer is a scripted fake server for the error-propagation table: it
// speaks just enough of the protocol to die at a precise point.
type killPoint int

const (
	killPreHello killPoint = iota
	killPostHello
	killMidEvent
	killMidNack
)

func runKillServer(t *testing.T, point killPoint) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if point == killPreHello {
			return // cut before even reading the Hello
		}
		r := NewReader(nc, 0)
		for range 2 { // the Hello and the Resume
			if _, _, err := r.Next(); err != nil {
				return
			}
		}
		nc.Write(AppendResumeOK(AppendWelcome(nil, DefaultMaxFrame, CapEventBatch), 0, 0))
		switch point {
		case killPostHello:
			return
		case killMidEvent:
			// Read one event frame, then cut mid-conversation.
			r.Next()
			return
		case killMidNack:
			// Send a truncated Nack: full header claiming 32 bytes, only
			// 5 delivered — the client reader dies inside the frame.
			nack, _ := AppendNack(nil, Nack{Seq: 1, Code: CodeInternal, Detail: "doomed"})
			nc.Write(nack[:headerLen+5])
			return
		}
	}()
	return ln.Addr().String()
}

// TestClientErrorPropagationOnTornConnections: whatever point the server
// dies at, Send must return the connection error (not block or panic) and
// Err must be sticky.
func TestClientErrorPropagationOnTornConnections(t *testing.T) {
	cases := []struct {
		name  string
		point killPoint
	}{
		{"pre-hello", killPreHello},
		{"post-hello", killPostHello},
		{"mid-event", killMidEvent},
		{"mid-nack", killMidNack},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := runKillServer(t, tc.point)
			c, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
			if tc.point == killPreHello {
				if err == nil {
					c.Close()
					t.Fatal("dial succeeded against a pre-hello kill")
				}
				return
			}
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			if tc.point == killMidEvent {
				c.Send(Event{Seq: 1, Device: "light"})
				c.Flush()
			}
			select {
			case <-c.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("reader never observed the kill")
			}
			first := c.Err()
			if first == nil {
				t.Fatal("Err nil after reader death")
			}
			if tc.point == killMidNack && !errors.Is(first, ErrBadFrame) {
				t.Errorf("mid-nack error = %v, want ErrBadFrame wrap", first)
			}
			// Send after the kill: returns the connection error promptly.
			done := make(chan error, 1)
			go func() { done <- c.Send(Event{Seq: 2, Device: "light"}) }()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Send on a torn connection returned nil")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Send blocked on a torn connection")
			}
			// Err is sticky: same terminal error on every later call.
			if again := c.Err(); !errors.Is(again, first) && again.Error() != first.Error() {
				t.Errorf("Err not sticky: %v then %v", first, again)
			}
		})
	}
}

// TestServerIdleEviction: a connection that goes silent past IdleTimeout
// is evicted and counted; one that keeps pinging survives.
func TestServerIdleEviction(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.IdleTimeout = 250 * time.Millisecond })

	silent, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "silent")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	waitFor(t, "idle eviction", func() bool { return s.Stats().EvictedIdle == 1 })
	select {
	case <-silent.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("evicted client never saw the cut")
	}

	lively, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "keeper")
	if err != nil {
		t.Fatal(err)
	}
	defer lively.Close()
	for i := 0; i < 12; i++ {
		if err := lively.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		time.Sleep(40 * time.Millisecond)
	}
	if lively.Err() != nil {
		t.Fatalf("pinging client evicted: %v", lively.Err())
	}
	if got := s.Stats().EvictedIdle; got != 1 {
		t.Errorf("evictions = %d, want only the silent client", got)
	}
}

// TestServerCloseReapsHalfOpenConns: connections stuck before their Hello
// must not survive Server.Close, and the whole accept/teardown cycle must
// not leak goroutines.
func TestServerCloseReapsHalfOpenConns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	b := newFakeBackend("", "home-0")
	s, err := NewServer(ServerConfig{Backend: b, Classify: b.classify, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	// Half-open connections: TCP established, Hello never sent.
	var raw []net.Conn
	for i := 0; i < 8; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, nc)
	}
	// Plus one authenticated session connection mid-flight.
	c, err := dialSession(ln.Addr().String(), ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session attach", func() bool { return s.Stats().Sessions == 1 })

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// Every half-open conn was cut: reads fail instead of hanging.
	for i, nc := range raw {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Errorf("half-open conn %d still alive after Close", i)
		}
		nc.Close()
	}
	<-c.Done()
	c.Close()
	// Session state and routes are gone.
	if s.Stats().Sessions != 0 {
		t.Errorf("sessions survive Close: %d", s.Stats().Sessions)
	}
	b.mu.Lock()
	sinks := len(b.sinks)
	b.mu.Unlock()
	if sinks != 0 {
		t.Errorf("%d alarm routes survive Close", sinks)
	}
	// No goroutine leaks: reader/writer pairs for all 9 conns are gone.
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestSessionClientReconnectsThroughFlaps: the SessionClient survives
// repeated connection kills with zero event loss and zero duplicate
// admission, observing the state transitions along the way.
func TestSessionClientReconnectsThroughFlaps(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 8 })

	var stMu sync.Mutex
	var states []SessionState
	sc, err := OpenSession(SessionConfig{
		Addr:       addr,
		Session:    "prod",
		Client:     ClientConfig{Tenant: "home-0"},
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		JitterSeed: 11,
		OnStateChange: func(st SessionState) {
			stMu.Lock()
			states = append(states, st)
			stMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const total = 600
	for i := 1; i <= total; i++ {
		for {
			err := sc.Send(Event{Seq: uint64(i), Device: "light", Value: float64(i % 2)})
			if err == nil {
				break
			}
			// A full window refuses only while degraded (a connected Send
			// waits for room): retry until the session resumes.
			if errors.Is(err, ErrSendWindowFull) {
				sc.Flush()
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatalf("send %d: %v", i, err)
		}
		if i%50 == 0 {
			sc.Flush()
			// Kill whatever connection is currently attached, mid-stream.
			s.ep.CloseConns()
		}
	}
	sc.Flush()
	waitFor(t, "all events admitted", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.events) == total
	})
	b.mu.Lock()
	var last uint64
	ok := true
	for _, ev := range b.events {
		if ev.Seq != last+1 {
			ok = false
			break
		}
		last = ev.Seq
	}
	b.mu.Unlock()
	if !ok {
		t.Fatal("admitted sequence has gaps or duplicates")
	}
	// The server admits a resume's retransmitted tail before the client
	// publishes the connection, counts the reconnect and reports it.
	reconnected := func() bool {
		stMu.Lock()
		defer stMu.Unlock()
		return sc.Stats().Reconnects > 0 && len(states) > 1 && states[len(states)-1] == StateConnected
	}
	waitFor(t, "a reconnect after the scripted kills", reconnected)
	cst := sc.Stats()
	if len(cst.Recoveries) != int(cst.Reconnects) {
		t.Errorf("recoveries %d != reconnects %d", len(cst.Recoveries), cst.Reconnects)
	}
	sst := s.Stats()
	if sst.Events != total {
		t.Errorf("admitted %d, want %d", sst.Events, total)
	}
	stMu.Lock()
	sawDegraded, sawReconnect := false, false
	for i, st := range states {
		if st == StateDegraded {
			sawDegraded = true
		}
		if st == StateConnected && i > 0 {
			sawReconnect = true
		}
	}
	stMu.Unlock()
	if !sawDegraded || !sawReconnect {
		t.Errorf("state transitions missing: %v", states)
	}
}

// TestSessionClientTypedBackpressureAndSeqOrder: a full window is
// ErrSendWindowFull, a regressing Seq is ErrSeqOrder, and give-up after
// MaxAttempts is sticky ErrSessionGaveUp.
func TestSessionClientTypedBackpressureAndSeqOrder(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)

	states := make(chan SessionState, 32)
	sc, err := OpenSession(SessionConfig{
		Addr:        addr,
		Session:     "prod",
		Client:      ClientConfig{Tenant: "home-0"},
		Window:      4,
		MaxAttempts: 2,
		BackoffMin:  time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		JitterSeed:  3,
		OnStateChange: func(st SessionState) {
			select {
			case states <- st:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Send(Event{Seq: 5, Device: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Send(Event{Seq: 5, Device: "d"}); !errors.Is(err, ErrSeqOrder) {
		t.Fatalf("regressing seq error = %v", err)
	}
	// Tear the server down entirely: the window stops draining and the
	// reconnect loop runs out of attempts.
	s.Close()
	for i := uint64(6); ; i++ {
		err := sc.Send(Event{Seq: i, Device: "d"})
		if errors.Is(err, ErrSendWindowFull) {
			break
		}
		if errors.Is(err, ErrSessionGaveUp) {
			break // gave up before the window filled; equally terminal
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i > 20 {
			t.Fatal("window never filled")
		}
	}
	waitFor(t, "give-up", func() bool { return errors.Is(sc.Err(), ErrSessionGaveUp) })
	if err := sc.Send(Event{Seq: 100, Device: "d"}); !errors.Is(err, ErrSessionGaveUp) {
		t.Fatalf("post-give-up send error = %v", err)
	}
	if !errors.Is(sc.Err(), ErrSessionGaveUp) {
		t.Fatal("give-up not sticky")
	}
	sawGaveUp := false
	for {
		select {
		case st := <-states:
			if st == StateGaveUp {
				sawGaveUp = true
			}
			continue
		default:
		}
		break
	}
	if !sawGaveUp {
		t.Error("OnStateChange never reported gave-up")
	}
}

// TestSessionRefusesOversizedEvent: an event too large to travel alone in
// a batch under the server's frame limit is refused by Send with
// ErrFrameTooLarge and never banked. Banked, it would be retransmitted into
// the server's frame-limit cut on every reconnect, and no later event would
// ever be admitted.
func TestSessionRefusesOversizedEvent(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.MaxFrame = 300 })
	sc, err := OpenSession(SessionConfig{
		Addr:        addr,
		Session:     "prod",
		Client:      ClientConfig{Tenant: "home-0"},
		MaxAttempts: 1 << 20,
		BackoffMin:  time.Millisecond,
		BackoffMax:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Send(Event{Seq: 1, Device: "light"}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Send(Event{Seq: 2, Device: strings.Repeat("x", 400)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized event: %v, want ErrFrameTooLarge", err)
	}
	if err := sc.Send(Event{Seq: 3, Device: "light"}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the events around the oversized one", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.events) == 2
	})
	b.mu.Lock()
	got := []uint64{b.events[0].Seq, b.events[1].Seq}
	b.mu.Unlock()
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("admitted seqs %v, want [1 3]", got)
	}
	if st := sc.Stats(); st.Reconnects != 0 || st.Retransmits != 0 || st.State != StateConnected {
		t.Fatalf("session stats %+v: the oversized event cut the connection", st)
	}
	if st := s.Stats(); st.Conns != 1 {
		t.Fatalf("server accepted %d connections, want 1", st.Conns)
	}
}

// TestSessionNackPrunesWindow: a Nack is a decided event, so it prunes the
// producer's retransmit window like an Ack. With the Ack cadence out of
// reach and every event refused, the window must still drain, and OnNack
// must still see every refusal.
func TestSessionNackPrunesWindow(t *testing.T) {
	b := newFakeBackend("", "home-0")
	b.reject = errFakeBackpressure
	addr, _ := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 1 << 20 })
	nacks := make(chan Nack, 16)
	sc, err := OpenSession(SessionConfig{Addr: addr, Session: "prod",
		Client: ClientConfig{Tenant: "home-0", OnNack: func(n Nack) { nacks <- n }}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := sc.Send(Event{Seq: seq, Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	sc.Flush()
	for i := 1; i <= 5; i++ {
		select {
		case n := <-nacks:
			if n.Seq != uint64(i) || n.Code != CodeBackpressure {
				t.Fatalf("nack %d = %+v", i, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("got %d of 5 nacks", i-1)
		}
	}
	if got := sc.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after every event was nacked, want 0", got)
	}
}

// TestSessionAckCountsDuplicates: retransmitted events below the watermark
// count toward AckEvery, so a frame of duplicates alone earns an Ack.
func TestSessionAckCountsDuplicates(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 4 })
	acks := make(chan uint64, 16)
	dial := func() *Client {
		c, err := dial(addr, ClientConfig{Tenant: "home-0"}, "prod", new(AlarmCursor), func(seq uint64) { acks <- seq })
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	expectAck := func(want uint64) {
		t.Helper()
		select {
		case seq := <-acks:
			if seq != want {
				t.Fatalf("ack %d, want %d", seq, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no ack %d", want)
		}
	}
	c1 := dial()
	for seq := uint64(1); seq <= 4; seq++ {
		c1.Send(Event{Seq: seq, Device: "light"})
	}
	c1.Flush()
	expectAck(4)
	c1.nc.Close()
	<-c1.Done()
	c2 := dial()
	defer c2.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		c2.SendRetx(Event{Seq: seq, Device: "light"})
	}
	c2.Flush()
	expectAck(4)
	if st := s.Stats(); st.Events != 4 || st.Duplicates != 4 {
		t.Fatalf("events %d duplicates %d, want 4 and 4", st.Events, st.Duplicates)
	}
}

// TestSessionClientSurvivesServerRestart: a server restarted on the same
// address has lost the session and numbers the fresh one's alarms from 1
// again. The client must deliver every one of them, not drop those at or
// below the receipt it held for the lost session, and its stale receipt
// must not prune the fresh bank.
func TestSessionClientSurvivesServerRestart(t *testing.T) {
	b := newFakeBackend("", "home-0")
	serve := func(ln net.Listener) (*Server, chan error) {
		s, err := NewServer(ServerConfig{Backend: b, Classify: b.classify, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve(ln) }()
		return s, done
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s1, done1 := serve(ln)

	var mu sync.Mutex
	var got []uint64
	sc, err := OpenSession(SessionConfig{Addr: addr, Session: "prod",
		Client: ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) {
			mu.Lock()
			got = append(got, a.Seq)
			mu.Unlock()
		}},
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond, MaxAttempts: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	received := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == n
		}
	}
	routed := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sinks) == 1
	}
	waitFor(t, "alarm route", routed)
	for seq := uint64(1); seq <= 5; seq++ {
		b.push("home-0", Alarm{Seq: seq})
	}
	waitFor(t, "alarms before the restart", received(5))

	s1.Close()
	if err := <-done1; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	s2, done2 := serve(ln)
	defer func() {
		s2.Close()
		<-done2
	}()
	waitFor(t, "reconnect to the restarted server", func() bool { return sc.Stats().Reconnects == 1 && routed() })
	for seq := uint64(6); seq <= 10; seq++ {
		b.push("home-0", Alarm{Seq: seq})
	}
	waitFor(t, "alarms after the restart", received(10))
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("alarms %v, want 1..10 in order", got)
		}
	}
	if st := s2.Stats(); st.AlarmsDropped != 0 || st.Alarms != 5 {
		t.Errorf("restarted server: alarms %d dropped %d, want 5 0", st.Alarms, st.AlarmsDropped)
	}
}

// openFullSession opens a session with a window of 4 against a server that
// acks only on a Ping, and fills the window with events 1..4. The server
// admits nothing until release is called, so until then it reads no Ping
// and sends no ack: a Send into the full window waits. The test's cleanup
// releases the server.
func openFullSession(t *testing.T, tweak func(*SessionConfig)) (sc *SessionClient, s *Server, release func()) {
	t.Helper()
	b := newFakeBackend("", "home-0")
	b.hold = make(chan struct{})
	release = sync.OnceFunc(func() { close(b.hold) })
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 1 << 20 })
	cfg := SessionConfig{Addr: addr, Session: "prod", Client: ClientConfig{Tenant: "home-0"}, Window: 4,
		BackoffMin: time.Hour, BackoffMax: time.Hour}
	if tweak != nil {
		tweak(&cfg)
	}
	sc, err := OpenSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	t.Cleanup(release) // runs first: the server cleanup waits for Serve, which waits for the held reader
	for seq := uint64(1); seq <= 4; seq++ {
		if err := sc.Send(Event{Seq: seq, Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	return sc, s, release
}

// sendAsync runs Send in a goroutine and returns the channel of its result.
func sendAsync(sc *SessionClient, seq uint64) chan error {
	done := make(chan error, 1)
	go func() { done <- sc.Send(Event{Seq: seq, Device: "light"}) }()
	return done
}

// expectBlocked fails when done yields within a short grace period.
func expectBlocked(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("Send into a full window returned %v while connected, want it to wait", err)
	case <-time.After(30 * time.Millisecond):
	}
}

// expectResult waits for done and checks its error.
func expectResult(t *testing.T, done chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("blocked Send returned %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Send never returned")
	}
}

// TestSessionSendWaitsForAck: while connected, a Send into a full window
// waits until an ack frees a slot, then returns nil. It draws that ack
// itself: the server acks only on a Ping, and the test sends none, so the
// Send returns only because it pinged before it waited — even though its
// window of 4 is far below the server's AckEvery.
func TestSessionSendWaitsForAck(t *testing.T) {
	sc, _, release := openFullSession(t, nil)
	done := sendAsync(sc, 5)
	expectBlocked(t, done)
	release() // the server admits 1..4 and reads the waiting Send's Ping
	expectResult(t, done, nil)
	if st := sc.Stats(); st.Acked != 4 || st.Window != 1 {
		t.Errorf("acked %d window %d, want 4 and 1", st.Acked, st.Window)
	}
}

// TestSessionCloseReleasesSend: Close releases a Send waiting on a full
// window with ErrClientClosed.
func TestSessionCloseReleasesSend(t *testing.T) {
	sc, _, _ := openFullSession(t, nil)
	done := sendAsync(sc, 5)
	expectBlocked(t, done)
	sc.Close()
	expectResult(t, done, ErrClientClosed)
}

// TestSessionConnDeathReleasesSend: the connection's death releases a Send
// waiting on a full window with ErrSendWindowFull, and while the session is
// degraded a full window refuses at once.
func TestSessionConnDeathReleasesSend(t *testing.T) {
	sc, s, _ := openFullSession(t, nil)
	done := sendAsync(sc, 5)
	expectBlocked(t, done)
	s.ep.CloseConns()
	expectResult(t, done, ErrSendWindowFull)
	waitFor(t, "degraded", func() bool { return sc.Stats().State == StateDegraded })
	if err := sc.Send(Event{Seq: 5, Device: "light"}); !errors.Is(err, ErrSendWindowFull) {
		t.Fatalf("degraded Send into a full window returned %v, want ErrSendWindowFull", err)
	}
}

// TestSessionGiveUpEndsSendRetry: a producer released by the connection's
// death retries on ErrSendWindowFull, the degraded path, until the session
// gives up; its loop ends with ErrSessionGaveUp.
func TestSessionGiveUpEndsSendRetry(t *testing.T) {
	sc, s, _ := openFullSession(t, func(cfg *SessionConfig) {
		cfg.MaxAttempts, cfg.BackoffMin, cfg.BackoffMax = 2, time.Millisecond, 5*time.Millisecond
	})
	done := make(chan error, 1)
	go func() {
		for {
			err := sc.Send(Event{Seq: 5, Device: "light"})
			if errors.Is(err, ErrSendWindowFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			done <- err
			return
		}
	}()
	expectBlocked(t, done)
	s.Close() // no server to reconnect to: the link gives up
	expectResult(t, done, ErrSessionGaveUp)
}

// TestSessionConcurrentSendersAllWake: four Sends waiting on one full
// window all return once one ack frees room for all of them. Each waiting
// Send pinged, but only the first ack frees anything, so a wake-up of a
// single waiter would leave three waiting for acks that never come. The
// senders race for the window, so one that finds a higher Seq added first
// gets ErrSeqOrder; the rest are added, in ascending order.
func TestSessionConcurrentSendersAllWake(t *testing.T) {
	sc, _, release := openFullSession(t, nil)
	var dones []chan error
	for seq := uint64(5); seq <= 8; seq++ {
		dones = append(dones, sendAsync(sc, seq))
	}
	for _, done := range dones {
		expectBlocked(t, done)
	}
	release()
	added := 0
	for i, done := range dones {
		select {
		case err := <-done:
			switch {
			case err == nil:
				added++
			case !errors.Is(err, ErrSeqOrder):
				t.Fatalf("sender %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sender %d still waiting after the ack freed the window", i)
		}
	}
	st := sc.Stats()
	if added == 0 || st.Window != added {
		t.Fatalf("%d senders added, window holds %d", added, st.Window)
	}
}
