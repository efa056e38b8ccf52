package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The producer-side codec keeps the signatures external callers (the
// serving benchmark among them) compile against.
var (
	_ func([]byte, Event) ([]byte, error) = AppendEvent
	_ func([]byte) (Event, error)         = ParseEvent
)

// appendEventBatch encodes an EventBatch frame in one go, as Client.Send
// builds it event by event.
func appendEventBatch(dst []byte, evs []Event) ([]byte, error) {
	dst, at := begin(dst, FrameEventBatch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(evs)))
	var err error
	for _, ev := range evs {
		if dst, err = appendEventBody(dst, ev); err != nil {
			return nil, err
		}
	}
	return frame(dst, at), nil
}

func TestEventBatchRoundTrip(t *testing.T) {
	now := time.Unix(1700000000, 42).UTC()
	in := []Event{
		{Seq: 1, Time: now, Device: "light", Value: 1},
		{Seq: 2, Time: now.Add(time.Second), Device: "door", Value: -0.5},
		{Seq: 3, Time: now, Device: "", Value: 0},
	}
	buf, err := appendEventBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	ft, p := readOne(t, buf, 0)
	if ft != FrameEventBatch {
		t.Fatalf("type = %v", ft)
	}
	out, err := new(Names).ParseEventBatch(p, nil)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("batch = %+v, %v; want %+v", out, err, in)
	}
	// Each entry is exactly an Event payload.
	single, _ := AppendEvent(nil, in[1])
	if !strings.Contains(string(p), string(single[headerLen+1:])) {
		t.Fatal("batch entry differs from the Event payload")
	}
	// A count the payload cannot hold is refused before decoding.
	forged := append([]byte(nil), p...)
	binary.BigEndian.PutUint16(forged, 60000)
	if evs, err := new(Names).ParseEventBatch(forged, nil); !errors.Is(err, ErrBadFrame) || len(evs) != 0 {
		t.Fatalf("forged count = %d events, %v", len(evs), err)
	}
	// A truncated batch returns the scratch untouched.
	scratch := []Event{{Seq: 99}}
	if evs, err := new(Names).ParseEventBatch(p[:len(p)-1], scratch); !errors.Is(err, ErrBadFrame) || len(evs) != 1 {
		t.Fatalf("truncated batch = %d events, %v", len(evs), err)
	}
}

// TestServerBatchOverlapsWatermark resumes a session with one EventBatch
// frame straddling the watermark: the prefix at or below it counts as
// duplicates, the rest is admitted, accepted == admitted + duplicates
// holds, and each frame earns a single cumulative Ack.
func TestServerBatchOverlapsWatermark(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 4 })
	var ackMu sync.Mutex
	var acks []uint64
	onAck := func(seq uint64) {
		ackMu.Lock()
		acks = append(acks, seq)
		ackMu.Unlock()
	}
	ackList := func() string {
		ackMu.Lock()
		defer ackMu.Unlock()
		return fmt.Sprint(acks)
	}
	send := func(c *Client, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if err := c.Send(Event{Seq: uint64(i), Device: "light"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := dial(addr, ClientConfig{Tenant: "home-0"}, "prod", new(AlarmCursor), onAck)
	if err != nil {
		t.Fatal(err)
	}
	send(c1, 1, 10)
	waitFor(t, "first frame's ack", func() bool { return ackList() == "[10]" })
	// Cut without a Bye: the session survives for the resume.
	c1.nc.Close()
	<-c1.Done()

	c2, err := dial(addr, ClientConfig{Tenant: "home-0"}, "prod", new(AlarmCursor), onAck)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	send(c2, 6, 15)
	waitFor(t, "second frame's ack", func() bool { return ackList() == "[10 15]" })
	st := s.Stats()
	if st.Events != 15 || st.Duplicates != 5 || st.Events+st.Duplicates != 20 {
		t.Fatalf("events %d duplicates %d, want 15 + 5 == 20 accepted", st.Events, st.Duplicates)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, ev := range b.events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("admitted seq %d at %d: duplicate or reorder", ev.Seq, i)
		}
	}
}

// TestServerBatchNacksEachRefusal refuses two events inside one batch: each
// is Nacked on its own, the events between and after them are admitted,
// and the counters match the per-event outcome.
func TestServerBatchNacksEachRefusal(t *testing.T) {
	b := newFakeBackend("", "home-0")
	b.refuse = func(ev Event) error {
		if ev.Seq == 3 || ev.Seq == 4 {
			return errFakeBackpressure
		}
		return nil
	}
	addr, s := startServer(t, b, nil)
	nacks := make(chan Nack, 8)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnNack: func(n Nack) { nacks <- n }}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 6; i++ {
		if err := c.Send(Event{Seq: uint64(i), Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	for _, want := range []uint64{3, 4} {
		select {
		case n := <-nacks:
			if n.Seq != want || n.Code != CodeBackpressure {
				t.Fatalf("nack %+v, want seq %d backpressure", n, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no nack for seq %d", want)
		}
	}
	st := s.Stats()
	if st.Events != 4 || st.Nacks != 2 {
		t.Fatalf("events %d nacks %d, want 4 and 2", st.Events, st.Nacks)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var got []uint64
	for _, ev := range b.events {
		got = append(got, ev.Seq)
	}
	if fmt.Sprint(got) != "[1 2 5 6]" {
		t.Fatalf("admitted %v, want [1 2 5 6]", got)
	}
}

// TestSessionBatchSeqOrderRefused: a session batch whose sequence numbers
// do not increase would break the watermark; the server refuses it as a
// protocol error and admits none of it.
func TestSessionBatchSeqOrderRefused(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	nacks := make(chan Nack, 1)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnNack: func(n Nack) { nacks <- n }}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(Event{Seq: 5, Device: "light"})
	c.Send(Event{Seq: 4, Device: "light"})
	c.Flush()
	select {
	case n := <-nacks:
		if n.Code != CodeProtocol {
			t.Fatalf("nack %+v, want protocol", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("disordered batch not refused")
	}
	<-c.Done()
	if st := s.Stats(); st.Events != 0 {
		t.Fatalf("admitted %d events of a refused batch", st.Events)
	}
}

// rawFrame is one frame a hand-rolled server read from a client.
type rawFrame struct {
	t      FrameType
	events int // events carried by an Event or EventBatch frame
}

// rawServer accepts one connection, answers its Hello and Resume with
// welcome and a fresh session's ResumeOK, and reports every later frame
// (read under maxFrame) until the client leaves.
func rawServer(t *testing.T, welcome []byte, maxFrame int) (string, <-chan []rawFrame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []rawFrame, 1)
	go func() {
		var frames []rawFrame
		defer func() { out <- frames }()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := NewReader(nc, maxFrame)
		for range 2 { // the Hello and the Resume
			if _, _, err := r.Next(); err != nil {
				return
			}
		}
		nc.Write(AppendResumeOK(welcome, 0, 0))
		for {
			ft, p, err := r.Next()
			if err != nil {
				if err != io.EOF {
					frames = append(frames, rawFrame{t: 0})
				}
				return
			}
			f := rawFrame{t: ft}
			switch ft {
			case FrameEvent, FrameEventRetx:
				f.events = 1
			case FrameEventBatch:
				evs, err := new(Names).ParseEventBatch(p, nil)
				if err != nil {
					frames = append(frames, rawFrame{t: 0})
					return
				}
				f.events = len(evs)
			}
			frames = append(frames, f)
			if ft == FrameBye {
				return
			}
		}
	}()
	return ln.Addr().String(), out
}

// TestWireClientBatchUnderSmallMaxFrame: with long device names and a
// small server frame limit, the client closes each batch before it would
// outgrow the limit, and refuses an event too large for any batch with
// ErrFrameTooLarge, writing nothing of it; one that just fits still goes.
func TestWireClientBatchUnderSmallMaxFrame(t *testing.T) {
	const maxFrame = 300
	// 126 bytes per event: two fit a 300-byte batch (3+252), three do not.
	dev := strings.Repeat("d", 100)
	addr, frames := rawServer(t, AppendWelcome(nil, maxFrame, CapEventBatch), 1<<20)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := c.Send(Event{Seq: uint64(i), Device: dev}); err != nil {
			t.Fatal(err)
		}
	}
	// Alone in a batch this one is 1 byte over the limit.
	if err := c.Send(Event{Seq: 8, Device: strings.Repeat("x", maxFrame-1-2-eventBodyMin+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized event: %v, want ErrFrameTooLarge", err)
	}
	// Alone in a batch this one is exactly the limit.
	if err := c.Send(Event{Seq: 9, Device: strings.Repeat("x", maxFrame-1-2-eventBodyMin)}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got := <-frames
	want := []rawFrame{{FrameEventBatch, 2}, {FrameEventBatch, 2}, {FrameEventBatch, 2}, {FrameEventBatch, 1}, {FrameEventBatch, 1}, {FrameBye, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
}

// TestWireClientBatchClosesAtMax: a batch closes at MaxEventBatch events
// without a Flush.
func TestWireClientBatchClosesAtMax(t *testing.T) {
	addr, frames := rawServer(t, AppendWelcome(nil, DefaultMaxFrame, CapEventBatch), 0)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= MaxEventBatch+1; i++ {
		if err := c.Send(Event{Seq: uint64(i), Device: "light"}); err != nil {
			t.Fatal(err)
		}
	}
	c.Ping() // closes the open batch of one ahead of the Ping
	c.Close()
	got := <-frames
	want := []rawFrame{{FrameEventBatch, MaxEventBatch}, {FrameEventBatch, 1}, {FramePing, 0}, {FrameBye, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
}

// TestWireClientRefusesServerWithoutBatchCap: a server whose Welcome has
// no capability byte cannot take the client's EventBatch frames, so the
// handshake fails with ErrBadFrame and no event frame is ever written.
func TestWireClientRefusesServerWithoutBatchCap(t *testing.T) {
	v1 := AppendWelcome(nil, DefaultMaxFrame, 0)
	v1 = v1[:len(v1)-1]
	binary.BigEndian.PutUint32(v1, uint32(len(v1)-headerLen))
	addr, frames := rawServer(t, v1, 0)
	if c, err := dialSession(addr, ClientConfig{Tenant: "home-0"}, "prod"); !errors.Is(err, ErrBadFrame) {
		if err == nil {
			c.Close()
		}
		t.Fatalf("dial = %v, want ErrBadFrame", err)
	}
	for _, f := range <-frames {
		if f.events > 0 {
			t.Fatalf("frame %v carried events to a server without CapEventBatch", f)
		}
	}
}

// TestWireInteropV1ClientEventFrames drives the server with a hand-rolled
// v1 session producer that sends one Event frame per event: it gets the
// same admissions, Nacks, one Ack per AckEvery events, and session alarms
// as before the batch frame existed, and its Welcome parses as v1.
func TestWireInteropV1ClientEventFrames(t *testing.T) {
	b := newFakeBackend("", "home-0")
	b.refuse = func(ev Event) error {
		if ev.Seq == 6 {
			return errFakeBackpressure
		}
		return nil
	}
	addr, s := startServer(t, b, func(cfg *ServerConfig) { cfg.AckEvery = 4 })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	out, _ := AppendHelloSession(nil, "", "home-0")
	out, _ = AppendResume(out, "v1", 0)
	for i := 1; i <= 10; i++ {
		out, _ = AppendEvent(out, Event{Seq: uint64(i), Device: "light"})
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	r := NewReader(nc, 0)
	next := func() (FrameType, []byte) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		ft, p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return ft, p
	}
	ft, p := next()
	if ver, max, err := parseWelcomeV1(p); ft != FrameWelcome || err != nil || ver != Version || max != DefaultMaxFrame {
		t.Fatalf("welcome %s %d %d %v", ft, ver, max, err)
	}
	if ft, _ := next(); ft != FrameResumeOK {
		t.Fatalf("got %s, want resume-ok", ft)
	}
	var got []string
	for len(got) < 3 {
		ft, p := next()
		switch ft {
		case FrameAck:
			seq, _ := ParseAck(p)
			got = append(got, fmt.Sprintf("ack %d", seq))
		case FrameNack:
			n, _ := ParseNack(p)
			got = append(got, fmt.Sprintf("nack %d %s", n.Seq, n.Code))
		default:
			t.Fatalf("unexpected %s", ft)
		}
	}
	if fmt.Sprint(got) != "[ack 4 nack 6 backpressure ack 8]" {
		t.Fatalf("replies %v, want [ack 4 nack 6 backpressure ack 8]", got)
	}
	if !b.push("home-0", Alarm{Seq: 9, Score: 0.5}) {
		t.Fatal("no alarm route")
	}
	ft, p = next()
	idx, a, err := ParseSessionAlarm(p)
	if ft != FrameSessionAlarm || err != nil || idx != 1 || a.Seq != 9 {
		t.Fatalf("alarm %s idx %d %+v %v", ft, idx, a, err)
	}
	st := s.Stats()
	if st.Events != 9 || st.Nacks != 1 || st.Alarms != 1 {
		t.Fatalf("events %d nacks %d alarms %d, want 9, 1, 1", st.Events, st.Nacks, st.Alarms)
	}
}

// parseWelcomeV1 decodes a Welcome the way a v1 client does: version and
// frame limit, ignoring any trailing bytes.
func parseWelcomeV1(p []byte) (uint8, uint32, error) {
	if len(p) < 5 {
		return 0, 0, ErrBadFrame
	}
	return p[0], binary.BigEndian.Uint32(p[1:]), nil
}

// nopBackend admits everything without recording it.
type nopBackend struct{}

func (nopBackend) Authenticate(string, string) error              { return nil }
func (nopBackend) SubmitBatch(_ string, evs []Event) (int, error) { return len(evs), nil }
func (nopBackend) RouteAlarms(string, func(Alarm)) error          { return nil }

// TestServerBatchDecideZeroAlloc pins the server's hot path — an
// EventBatch decoded against the connection's name table, then decided
// through a session watermark with its cumulative Ack — at zero steady-state
// allocations.
func TestServerBatchDecideZeroAlloc(t *testing.T) {
	s, err := NewServer(ServerConfig{Backend: nopBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	a, peer := net.Pipe()
	defer a.Close()
	go io.Copy(io.Discard, peer)
	c := &srvConn{srv: s, nc: a, tenant: "home-0", sess: &session{tenant: "home-0", name: "prod"}}
	c.w = NewWriter(a, 1024, 0, 0, nil)
	defer c.w.Finish()
	devices := []string{"light", "door", "presence", "kettle"}
	evs := make([]Event, MaxEventBatch)
	var frame []byte
	var names Names
	var seq uint64
	run := func() {
		for i := range evs {
			seq++
			evs[i] = Event{Seq: seq, Device: devices[i%len(devices)], Value: 1}
		}
		frame, _ = appendEventBatch(frame[:0], evs)
		var err error
		if c.evs, err = names.ParseEventBatch(frame[headerLen+1:], c.evs[:0]); err != nil {
			t.Fatal(err)
		}
		if !s.decide(c, c.evs, false) {
			t.Fatal("decide closed the connection")
		}
	}
	run()
	if n := testing.AllocsPerRun(1000, run); n != 0 {
		t.Fatalf("batch decode + decide: %v allocs per %d-event batch, want 0", n, MaxEventBatch)
	}
	if st := s.Stats(); st.Events != seq || st.Duplicates != 0 {
		t.Fatalf("events %d duplicates %d, want %d admitted", st.Events, st.Duplicates, seq)
	}
}
