package wire

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// waitWithin polls cond on a 1 ms ticker until it holds, failing the test
// after limit, and reports how long it took.
func waitWithin(t *testing.T, limit time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		if time.Since(start) > limit {
			t.Fatalf("%s: not within %v", what, limit)
		}
		<-tick.C
	}
	return time.Since(start)
}

// receiptSlack is the scheduling allowance added to ReceiptDelay where a
// test waits for the fallback: the race detector and a loaded machine can
// delay a timer's goroutine well past its deadline.
const receiptSlack = 2 * time.Second

// alarmingBackend raises an alarm on every event whose Seq is a multiple
// of every, from inside SubmitBatch as a detector would on its stream
// thread.
type alarmingBackend struct {
	*fakeBackend
	every uint64
}

func (b alarmingBackend) SubmitBatch(tenant string, evs []Event) (int, error) {
	n, err := b.fakeBackend.SubmitBatch(tenant, evs)
	for _, ev := range evs[:n] {
		if ev.Seq%b.every == 0 {
			b.push(tenant, Alarm{Seq: ev.Seq, Score: 0.5})
		}
	}
	return n, err
}

// alarmLog records the alarms a session delivers, in order.
type alarmLog struct {
	mu   sync.Mutex
	seqs []uint64
}

func (l *alarmLog) add(a Alarm) {
	l.mu.Lock()
	l.seqs = append(l.seqs, a.Seq)
	l.mu.Unlock()
}

func (l *alarmLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seqs)
}

// inOrder reports whether the log holds exactly step, 2·step, … n·step,
// each once.
func (l *alarmLog) inOrder(n int, step uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seqs) != n {
		return fmt.Errorf("%d alarms delivered, want %d", len(l.seqs), n)
	}
	for i, s := range l.seqs {
		if s != uint64(i+1)*step {
			return fmt.Errorf("alarm %d has seq %d: lost or duplicated", i, s)
		}
	}
	return nil
}

// sessionBank is the server-side bank of the named session.
func sessionBank(s *Server, tenant, name string) *Receiver {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[sessionKey(tenant, name)]; sess != nil {
		return &sess.rx
	}
	return nil
}

// TestSessionQuietProducerReceipts: a producer that sends nothing still
// confirms the alarms it receives, by ReceiptLag and the ReceiptDelay
// fallback, so the server's bank empties without a write of the producer's
// own.
func TestSessionQuietProducerReceipts(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	var got alarmLog
	sc, err := OpenSession(SessionConfig{Addr: addr, Session: "quiet",
		Client: ClientConfig{Tenant: "home-0", OnAlarm: got.add}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	rx := sessionBank(s, "home-0", "quiet")
	// A burst below ReceiptLag waits for the fallback; one past it sends
	// receipts early and the fallback the rest.
	total := 0
	for _, burst := range []int{ReceiptLag / 2, 3*ReceiptLag + 5} {
		for range burst {
			total++
			if !b.push("home-0", Alarm{Seq: uint64(total), Score: 0.5}) {
				t.Fatal("no alarm route")
			}
		}
		waitWithin(t, 10*time.Second, "alarm delivery", func() bool { return got.len() == total })
		took := waitWithin(t, ReceiptDelay+receiptSlack, "bank drain", func() bool { return rx.Banked() == 0 })
		t.Logf("burst of %d: bank drained %v after the last delivery, %d receipt frames so far", burst, took, s.Stats().AlarmReceipts)
	}
	if err := got.inOrder(total, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.AlarmReceipts == 0 || st.AlarmsDropped != 0 {
		t.Fatalf("receipts %d dropped %d, want >0 and 0", st.AlarmReceipts, st.AlarmsDropped)
	}
}

// TestSessionReceiptsCoalesce: on a busy connection the receipts ride the
// producer's own batch closes and flushes, so N alarms cost far fewer than
// N receipt frames, and every alarm is still confirmed. The producer sends
// in rounds of 512 events, one in eight alarming, and waits for each
// round's alarms before the next: its receipts then travel on the next
// round's writes, and the bank holds a round's alarms plus the receipt lag,
// well inside its 256 entries.
func TestSessionReceiptsCoalesce(t *testing.T) {
	const rounds, round, every = 16, 512, 8
	fb := newFakeBackend("", "home-0")
	s, err := NewServer(ServerConfig{Backend: alarmingBackend{fb, every}, Classify: fb.classify, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	addr := ln.Addr().String()
	var got alarmLog
	sc, err := OpenSession(SessionConfig{Addr: addr, Session: "busy",
		Client: ClientConfig{Tenant: "home-0", OnAlarm: got.add}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	seq := uint64(0)
	for r := 1; r <= rounds; r++ {
		for range round {
			seq++
			if err := sc.Send(Event{Seq: seq, Device: "light", Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		sc.Flush()
		waitWithin(t, 10*time.Second, "alarm delivery", func() bool { return got.len() == r*round/every })
	}
	const n = rounds * round / every
	rx := sessionBank(s, "home-0", "busy")
	waitWithin(t, ReceiptDelay+receiptSlack, "bank drain", func() bool { return rx.Banked() == 0 })
	if err := got.inOrder(n, every); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.AlarmReceipts == 0 || st.AlarmReceipts*10 > n {
		t.Fatalf("%d receipt frames for %d alarms, want at most a tenth", st.AlarmReceipts, n)
	}
	if st.AlarmsDropped != 0 {
		t.Fatalf("%d alarms dropped", st.AlarmsDropped)
	}
	t.Logf("%d receipt frames for %d alarms (%.4f per alarm)", st.AlarmReceipts, n, float64(st.AlarmReceipts)/n)
}

// TestSessionKilledWithReceiptPending cuts the connection from inside the
// delivery of an alarm, before its receipt can be written: the resume
// carries the receipt instead, and across the cut the caller sees every
// alarm exactly once, in order.
func TestSessionKilledWithReceiptPending(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	var got alarmLog
	var sc *SessionClient
	const cutAt, n = 5, 12
	cut := make(chan struct{})
	onAlarm := func(a Alarm) {
		got.add(a)
		if a.Seq == cutAt {
			// The reader receipts this alarm only after the callback
			// returns; the connection dies first.
			conn, _ := sc.link.Current()
			conn.nc.Close()
			close(cut)
		}
	}
	sc, err := OpenSession(SessionConfig{Addr: addr, Session: "cut", BackoffMin: time.Millisecond,
		Client: ClientConfig{Tenant: "home-0", OnAlarm: onAlarm}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i := 1; i <= cutAt; i++ {
		b.push("home-0", Alarm{Seq: uint64(i), Score: 0.5})
	}
	<-cut
	waitWithin(t, 10*time.Second, "resume", func() bool { return sc.Stats().Reconnects == 1 })
	for i := cutAt + 1; i <= n; i++ {
		b.push("home-0", Alarm{Seq: uint64(i), Score: 0.5})
	}
	waitWithin(t, 10*time.Second, "alarm delivery", func() bool { return got.len() >= n })
	rx := sessionBank(s, "home-0", "cut")
	waitWithin(t, ReceiptDelay+receiptSlack, "bank drain", func() bool { return rx.Banked() == 0 })
	if err := got.inOrder(n, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.AlarmsDropped != 0 {
		t.Fatalf("%d alarms dropped", st.AlarmsDropped)
	}
}

// TestAlarmFrameAllocs pins the alarm codecs' allocations: an encode onto
// nil is one allocation (the frame, sized before it is written), and a
// decode through a warm name table allocates only the returned alarm's
// event slice and the one array its contexts share.
func TestAlarmFrameAllocs(t *testing.T) {
	encoders := map[string]func() ([]byte, error){
		"SessionAlarm": func() ([]byte, error) { return AppendSessionAlarm(nil, 7, goldenAlarm) },
		"AlarmStream":  func() ([]byte, error) { return AppendAlarmStream(nil, "home-3", 11, goldenAlarm) },
	}
	for name, enc := range encoders {
		frame, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != cap(frame) {
			t.Errorf("%s: frame of %d bytes in a %d-byte array: not sized first", name, len(frame), cap(frame))
		}
		if n := testing.AllocsPerRun(100, func() { enc() }); n != 1 {
			t.Errorf("%s encode: %v allocs, want 1", name, n)
		}
	}
	sess, _ := AppendSessionAlarm(nil, 7, goldenAlarm)
	stream, _ := AppendAlarmStream(nil, "home-3", 11, goldenAlarm)
	var names Names
	names.ParseSessionAlarm(sess[headerLen+1:])
	names.ParseAlarmStream(stream[headerLen+1:])
	if n := testing.AllocsPerRun(100, func() { names.ParseSessionAlarm(sess[headerLen+1:]) }); n != 2 {
		t.Errorf("warm ParseSessionAlarm: %v allocs, want 2 (events, contexts)", n)
	}
	if n := testing.AllocsPerRun(100, func() { names.ParseAlarmStream(stream[headerLen+1:]) }); n != 2 {
		t.Errorf("warm ParseAlarmStream: %v allocs, want 2 (events, contexts)", n)
	}
}

// TestReceiverPushAllocs: banking and pushing an alarm costs its frame's one
// allocation once the bank's ring and the writer's buffer are warm.
func TestReceiverPushAllocs(t *testing.T) {
	e := &Endpoint{AlarmRing: 8}
	var r Receiver
	p := newAlarmPipe(t)
	r.Attach(e, p.w, 0)
	go func() {
		for {
			if _, _, err := p.r.Next(); err != nil {
				return
			}
		}
	}()
	push := func() {
		r.Push(e, goldenAlarm, AppendSessionAlarm)
		_, idx := r.Ack()
		r.Confirm(idx)
	}
	for range 16 {
		push()
	}
	if n := testing.AllocsPerRun(200, push); n > 1 {
		t.Errorf("Push: %v allocs, want 1", n)
	}
}

// TestPingPathAllocs: a session's Ping, the server's Ack-and-Pong answer
// and the client's reading of both allocate nothing once warm.
func TestPingPathAllocs(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, _ := startServer(t, b, nil)
	acked := make(chan uint64, 1)
	c, err := dial(addr, ClientConfig{Tenant: "home-0"}, "ping", new(AlarmCursor), func(seq uint64) {
		select {
		case acked <- seq:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ping := func() {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		<-acked // the server answered: its Ack precedes the Pong
	}
	for range 16 {
		ping()
	}
	if n := testing.AllocsPerRun(200, ping); n > 0 {
		t.Errorf("ping round trip: %v allocs, want 0", n)
	}
}

// TestWriterTrailerRidesWrites: the trailer's frames go out on the writes
// the writer makes anyway, and Nudge sends them on an idle writer.
func TestWriterTrailerRidesWrites(t *testing.T) {
	a, bconn := net.Pipe()
	defer bconn.Close()
	w := NewWriter(a, 64, 0, 0, nil)
	defer w.Finish()
	var mu sync.Mutex
	pending := uint64(0)
	w.SetTrailer(func(dst []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if pending == 0 {
			return dst
		}
		dst = AppendAlarmAck(dst, pending)
		pending = 0
		return dst
	})
	r := NewReader(bconn, 0)
	bconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	mu.Lock()
	pending = 3
	mu.Unlock()
	w.Send(AppendBye(nil))
	if ft, _ := nextFrame(t, r); ft != FrameBye {
		t.Fatalf("first frame %s, want the write's own bye", ft)
	}
	if ft, p := nextFrame(t, r); ft != FrameAlarmAck {
		t.Fatalf("second frame %s, want the trailer's alarm-ack", ft)
	} else if idx, _ := ParseAlarmAck(p); idx != 3 {
		t.Fatalf("trailer receipt %d, want 3", idx)
	}
	mu.Lock()
	pending = 9
	mu.Unlock()
	w.Nudge()
	if ft, p := nextFrame(t, r); ft != FrameAlarmAck {
		t.Fatalf("nudged frame %s, want alarm-ack", ft)
	} else if idx, _ := ParseAlarmAck(p); idx != 9 {
		t.Fatalf("nudged receipt %d, want 9", idx)
	}
}
