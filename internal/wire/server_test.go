package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeBackend is an in-memory Backend: a fixed token, a set of known
// tenants, an error schedule for Submit, and captured alarm sinks so tests
// can push alarms as if a detection stream raised them.
type fakeBackend struct {
	token   string
	tenants map[string]bool

	mu     sync.Mutex
	events []Event
	sinks  map[string]func(Alarm)
	reject error             // when non-nil, every event is refused with this
	refuse func(Event) error // when non-nil, refuses the events it errors on
	hold   chan struct{}     // when non-nil, SubmitBatch waits until it is closed
}

var errFakeUnknownTenant = errors.New("fake: unknown tenant")
var errFakeBackpressure = errors.New("fake: backpressure")

func newFakeBackend(token string, tenants ...string) *fakeBackend {
	b := &fakeBackend{token: token, tenants: make(map[string]bool), sinks: make(map[string]func(Alarm))}
	for _, t := range tenants {
		b.tenants[t] = true
	}
	return b
}

func (b *fakeBackend) Authenticate(token, tenant string) error {
	if b.token != "" && token != b.token {
		return ErrBadAuth
	}
	return nil
}

func (b *fakeBackend) SubmitBatch(tenant string, evs []Event) (int, error) {
	if b.hold != nil {
		<-b.hold
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.reject != nil {
		return 0, b.reject
	}
	for i, ev := range evs {
		if b.refuse != nil {
			if err := b.refuse(ev); err != nil {
				return i, err
			}
		}
		b.events = append(b.events, ev)
	}
	return len(evs), nil
}

func (b *fakeBackend) RouteAlarms(tenant string, sink func(Alarm)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.tenants[tenant] {
		return errFakeUnknownTenant
	}
	if sink == nil {
		delete(b.sinks, tenant)
	} else {
		b.sinks[tenant] = sink
	}
	return nil
}

func (b *fakeBackend) push(tenant string, a Alarm) bool {
	b.mu.Lock()
	sink := b.sinks[tenant]
	b.mu.Unlock()
	if sink == nil {
		return false
	}
	sink(a)
	return true
}

func (b *fakeBackend) classify(err error) Code {
	switch {
	case errors.Is(err, ErrBadAuth):
		return CodeBadAuth
	case errors.Is(err, errFakeUnknownTenant):
		return CodeUnknownTenant
	case errors.Is(err, errFakeBackpressure):
		return CodeBackpressure
	default:
		return CodeInternal
	}
}

// startServer runs a wire server over a fake backend on a loopback
// listener, returning the dial address.
func startServer(t *testing.T, b *fakeBackend, tweak func(*ServerConfig)) (string, *Server) {
	t.Helper()
	cfg := ServerConfig{Backend: b, Classify: b.classify, Logf: t.Logf}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), s
}

// dialSession opens one connection of the named session with a fresh
// alarm cursor and no ack callback.
func dialSession(addr string, cfg ClientConfig, session string) (*Client, error) {
	return dial(addr, cfg, session, new(AlarmCursor), nil)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerEventFlow(t *testing.T) {
	b := newFakeBackend("tok", "home-0")
	addr, s := startServer(t, b, nil)

	var nacks []Nack
	var nackMu sync.Mutex
	c, err := dialSession(addr, ClientConfig{Token: "tok", Tenant: "home-0", OnNack: func(n Nack) {
		nackMu.Lock()
		nacks = append(nacks, n)
		nackMu.Unlock()
	}}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := c.Send(Event{Seq: uint64(i), Device: "light", Value: float64(i % 2), Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "events", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.events) == 100
	})
	b.mu.Lock()
	for i, ev := range b.events {
		if ev.Seq != uint64(i+1) || ev.Device != "light" {
			b.mu.Unlock()
			t.Fatalf("event %d = %+v: order not preserved", i, ev)
		}
	}
	b.mu.Unlock()
	if got := s.Stats().Events; got != 100 {
		t.Fatalf("server events = %d", got)
	}
	nackMu.Lock()
	n := len(nacks)
	nackMu.Unlock()
	if n != 0 {
		t.Fatalf("unexpected nacks: %v", nacks)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The alarm route is released once the session's Bye retired it.
	waitFor(t, "route cleanup", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sinks) == 0
	})
}

func TestServerNackOnSubmitError(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	b.mu.Lock()
	b.reject = errFakeBackpressure
	b.mu.Unlock()

	nacks := make(chan Nack, 16)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnNack: func(n Nack) { nacks <- n }}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(Event{Seq: 7, Device: "light"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-nacks:
		if n.Seq != 7 || n.Code != CodeBackpressure {
			t.Fatalf("nack = %+v", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no nack received")
	}
	if got := s.Stats().Nacks; got != 1 {
		t.Fatalf("server nacks = %d", got)
	}
}

func TestServerAlarmPushback(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)

	alarms := make(chan Alarm, 16)
	c, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { alarms <- a }}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "alarm route", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sinks) == 1
	})
	want := Alarm{Seq: 31, Score: 0.75, Events: []AlarmEvent{{Device: "light", State: 1, Score: 0.75}}}
	if !b.push("home-0", want) {
		t.Fatal("no sink routed")
	}
	select {
	case got := <-alarms:
		if got.Seq != want.Seq || got.Score != want.Score || len(got.Events) != 1 {
			t.Fatalf("alarm = %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no alarm received")
	}
	if got := s.Stats().Alarms; got != 1 {
		t.Fatalf("server alarms = %d", got)
	}
}

// TestServerRefusesBadAuth: a bad token is refused at the Hello and counted
// as an auth failure; an unknown tenant passes the Hello and is refused at
// the Resume, when its alarm route is claimed, leaving no session behind.
func TestServerRefusesBadAuth(t *testing.T) {
	b := newFakeBackend("tok", "home-0")
	addr, s := startServer(t, b, nil)
	if _, err := dialSession(addr, ClientConfig{Token: "wrong", Tenant: "home-0"}, "prod"); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("bad token error = %v", err)
	}
	if _, err := dialSession(addr, ClientConfig{Token: "tok", Tenant: "nobody"}, "prod"); err == nil ||
		!strings.Contains(err.Error(), CodeUnknownTenant.String()) {
		t.Fatalf("unknown tenant error = %v", err)
	}
	if st := s.Stats(); st.AuthFailures != 1 || st.Sessions != 0 {
		t.Fatalf("auth failures %d sessions %d, want 1 and 0", st.AuthFailures, st.Sessions)
	}
}

// TestServerRefusesPlainHello: a Hello without the session byte is refused
// with a CodeProtocol Nack saying a session is required, before any alarm
// route is claimed.
func TestServerRefusesPlainHello(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello, err := appendHello(nil, FrameHello, "", "home-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := NewReader(nc, 0)
	ft, p, err := r.Next()
	if err != nil || ft != FrameNack {
		t.Fatalf("reply = %v %v, want nack", ft, err)
	}
	n, err := ParseNack(p)
	if err != nil || n.Code != CodeProtocol || !strings.Contains(n.Detail, "session required") {
		t.Fatalf("nack = %+v %v, want a protocol nack requiring a session", n, err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("connection still open after the refused hello")
	}
	b.mu.Lock()
	routes := len(b.sinks)
	b.mu.Unlock()
	if st := s.Stats(); routes != 0 || st.AuthFailures != 1 || st.Sessions != 0 {
		t.Fatalf("routes %d auth failures %d sessions %d, want 0, 1, 0", routes, st.AuthFailures, st.Sessions)
	}
}

func TestServerRefusesNonHelloFirst(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, _ := startServer(t, b, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame, _ := AppendEvent(nil, Event{Seq: 1, Device: "light"})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	r := NewReader(nc, 0)
	ft, p, err := r.Next()
	if err != nil || ft != FrameNack {
		t.Fatalf("reply = %v %v", ft, err)
	}
	n, err := ParseNack(p)
	if err != nil || n.Code != CodeProtocol {
		t.Fatalf("nack = %+v %v", n, err)
	}
}

func TestServerOversizedFrameNack(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, _ := startServer(t, b, func(cfg *ServerConfig) { cfg.MaxFrame = 256 })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A forged 1MiB length prefix: the server must nack and hang up
	// without trying to read (or allocate) the body.
	if _, err := nc.Write([]byte{0x00, 0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(nc, 0)
	ft, p, err := r.Next()
	if err != nil || ft != FrameNack {
		t.Fatalf("reply = %v %v", ft, err)
	}
	if n, _ := ParseNack(p); n.Code != CodeProtocol {
		t.Fatalf("nack = %+v", n)
	}
}

// TestServerNewConnDisplacesAlarmRoute: the newest session for a tenant
// receives its alarms; the displaced session's retirement must not clear
// the newer route.
func TestServerNewConnDisplacesAlarmRoute(t *testing.T) {
	b := newFakeBackend("", "home-0")
	addr, s := startServer(t, b, nil)

	got1 := make(chan Alarm, 1)
	c1, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { got1 <- a }}, "first")
	if err != nil {
		t.Fatal(err)
	}
	got2 := make(chan Alarm, 1)
	c2, err := dialSession(addr, ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { got2 <- a }}, "second")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// c1's Bye retired its session; the route must still point at c2's.
	waitFor(t, "first session retired", func() bool { return s.Stats().Sessions == 1 })
	waitFor(t, "displaced alarm", func() bool {
		return b.push("home-0", Alarm{Seq: 5})
	})
	select {
	case <-got2:
	case <-time.After(10 * time.Second):
		t.Fatal("alarm not delivered to the newer connection")
	}
	select {
	case a := <-got1:
		t.Fatalf("closed connection received alarm %+v", a)
	default:
	}
}

func TestServerCloseTerminatesServe(t *testing.T) {
	b := newFakeBackend("", "home-0")
	s, err := NewServer(ServerConfig{Backend: b, Classify: b.classify})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	c, err := dialSession(ln.Addr().String(), ClientConfig{Tenant: "home-0"}, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	waitFor(t, "client read error", func() bool { return c.Err() != nil })
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); err == nil {
		t.Fatal("Serve on closed server accepted")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("nil backend accepted")
	}
}
