package causaliot

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/hub"
	"github.com/causaliot/causaliot/internal/wire"
)

// startWireServer serves a host on a loopback listener, returning the dial
// address. The server is torn down with the test.
func startWireServer(t *testing.T, h Host, cfg WireConfig) (string, *WireServer) {
	t.Helper()
	cfg.Logf = t.Logf
	s, err := NewWireServer(h, cfg)
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

// openWireSession opens a producer session on addr named after the test.
func openWireSession(t *testing.T, addr string, cfg wire.ClientConfig) (*wire.SessionClient, error) {
	t.Helper()
	return wire.OpenSession(wire.SessionConfig{Addr: addr, Session: t.Name(), Client: cfg})
}

// TestWireServerEndToEnd drives the full network path over a real hub: a
// producer session streams the ghost sequence as event frames and receives
// the detection alarm back on the same connection, tagged with the sequence
// number of the event that completed the chain.
func TestWireServerEndToEnd(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 2})
	defer h.Close()
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	addr, s := startWireServer(t, h, WireConfig{Token: "tok"})

	alarms := make(chan wire.Alarm, 4)
	var nacks []wire.Nack
	var nackMu sync.Mutex
	c, err := openWireSession(t, addr, wire.ClientConfig{
		Token:  "tok",
		Tenant: "home",
		OnNack: func(n wire.Nack) {
			nackMu.Lock()
			nacks = append(nacks, n)
			nackMu.Unlock()
		},
		OnAlarm: func(a wire.Alarm) { alarms <- a },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, ev := range ghostSequence() {
		wev := wire.Event{Seq: uint64(i + 1), Time: ev.Time, Device: ev.Device, Value: ev.Value}
		if err := c.Send(wev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-alarms:
		if a.Seq != 5 {
			t.Fatalf("alarm seq = %d, want 5 (the ghost activation)", a.Seq)
		}
		if len(a.Events) == 0 || a.Events[0].Device != "light" {
			t.Fatalf("alarm events = %+v", a.Events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no alarm pushed back")
	}
	nackMu.Lock()
	n := len(nacks)
	nackMu.Unlock()
	if n != 0 {
		t.Fatalf("unexpected nacks: %+v", nacks)
	}
	st := s.Stats()
	if st.Events != 5 || st.Alarms != 1 || st.Nacks != 0 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestAlarmIdentityAcrossHops runs one trace through a Monitor, a Hub
// alarm route, a wire session behind NewWireServer, and a router over two
// cluster workers. Every hop hands the detector's one alarm type on as it
// is, so each must deliver alarms deeply equal to the Monitor's own: Seq,
// Score, the chain and the context order included.
func TestAlarmIdentityAcrossHops(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	stream := clusterStream(400, 11)
	for i := range stream {
		stream[i].Seq = uint64(i + 1)
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	var want []Alarm
	multi := false
	for _, ev := range stream {
		det, err := mon.ObserveEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if det.Alarm == nil {
			continue
		}
		for _, ae := range det.Alarm.Events {
			if !slices.IsSortedFunc(ae.Context, func(a, b ContextEntry) int { return strings.Compare(a.Name, b.Name) }) {
				t.Fatalf("seq %d: context not in name order: %v", ev.Seq, ae.Context)
			}
			multi = multi || len(ae.Context) > 1
		}
		want = append(want, *det.Alarm)
	}
	if len(want) < 2 || !multi {
		t.Fatalf("trace raised %d alarms (multi-cause context: %v); the comparison would be vacuous", len(want), multi)
	}

	var mu sync.Mutex
	got := make(map[string][]Alarm)
	record := func(hop string, a Alarm) {
		mu.Lock()
		got[hop] = append(got[hop], a)
		mu.Unlock()
	}
	await := func(hop string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			mu.Lock()
			n := len(got[hop])
			mu.Unlock()
			if n >= len(want) || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(got[hop], want) {
			t.Errorf("%s delivered %d alarms that differ from the monitor's %d:\n got %+v\nwant %+v",
				hop, len(got[hop]), len(want), got[hop], want)
		}
	}

	// Hub route.
	h := NewHub(HubConfig{Workers: 2})
	defer h.Close()
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAlarmRoute("home", func(ta TenantAlarm) { record("hub", *ta.Alarm) }); err != nil {
		t.Fatal(err)
	}
	for _, ev := range stream {
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	await("hub")

	// Wire session behind NewWireServer.
	wh := NewHub(HubConfig{Workers: 2})
	defer wh.Close()
	if err := wh.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	addr, _ := startWireServer(t, wh, WireConfig{Token: "tok"})
	c, err := openWireSession(t, addr, wire.ClientConfig{Token: "tok", Tenant: "home", OnAlarm: func(a wire.Alarm) { record("wire", a) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ev := range stream {
		if err := c.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	await("wire")

	// Router over two cluster workers.
	_, addr1 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2}, Token: "s3cret"})
	_, addr2 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2}, Token: "s3cret"})
	f, err := NewCluster(ClusterConfig{Workers: []RemoteShardConfig{
		{Addr: addr1, Token: "s3cret", Logf: t.Logf},
		{Addr: addr2, Token: "s3cret", Logf: t.Logf},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAlarmRoute("home", func(ta TenantAlarm) { record("cluster", *ta.Alarm) }); err != nil {
		t.Fatal(err)
	}
	for _, ev := range stream {
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	await("cluster")
}

// TestAlarmDeliveryAllocs pins what handing the ghost alarm on costs. From
// a home's stream thread into a wire frame (the hub's alarm route, the
// wire backend's sink, and the encoder writing into a reused buffer) the
// alarm crosses as it is, at no allocation. On a cluster router, an alarm
// decoded off the worker link reaches the fleet's sink at one allocation:
// the alarm header the TenantAlarm points at.
func TestAlarmDeliveryAllocs(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	var alarm *Alarm
	for _, ev := range ghostSequence() {
		det, err := mon.ObserveEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if det.Alarm != nil {
			alarm = det.Alarm
		}
	}
	if alarm == nil || len(alarm.Events[0].Context) == 0 {
		t.Fatalf("ghost sequence raised %+v; the measurement would be vacuous", alarm)
	}

	h := NewHub(HubConfig{Workers: 1})
	defer h.Close()
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	encode := func(a wire.Alarm) {
		var err error
		if buf, err = wire.AppendSessionAlarm(buf[:0], 1, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := (&hostBackend{host: h}).RouteAlarms("home", encode); err != nil {
		t.Fatal(err)
	}
	var tp *tenantProc
	if err := h.inner.Update("home", func(p hub.Processor) (hub.Processor, error) {
		tp = p.(*tenantProc)
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { tp.deliver(alarm) }); allocs != 0 {
		t.Errorf("hub → wire frame: %.1f allocs per alarm, want 0", allocs)
	}
	if len(buf) == 0 {
		t.Fatal("no alarm frame encoded; the measurement was vacuous")
	}

	rs := &remoteShard{sinks: make(map[string]func(string, *Alarm, float64))}
	delivered := 0
	sink := rs.wireSink("home", func(string, *Alarm, float64) { delivered++ })
	if allocs := testing.AllocsPerRun(200, func() { sink(*alarm) }); allocs != 1 {
		t.Errorf("cluster link → fleet sink: %.1f allocs per alarm, want 1", allocs)
	}
	if delivered == 0 {
		t.Fatal("no alarm reached the fleet sink; the measurement was vacuous")
	}
}

// TestWireServerBackpressureNack wedges the hub's single worker and fills
// the home's Reject queue: the overflow must come back to the producer as
// CodeBackpressure nacks echoing the refused events' sequence numbers — the
// end-to-end contract that nothing is silently lost.
func TestWireServerBackpressureNack(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 1, QueueSize: 4, Backpressure: BackpressureReject})
	defer h.Close()
	// Deferred after h.Close so the drain finds the worker released (LIFO).
	release := make(chan struct{})
	defer close(release)
	wedge := func(string, Event, error) { <-release }
	if err := h.Register("home", sys, TenantOptions{OnError: wedge}); err != nil {
		t.Fatal(err)
	}
	addr, s := startWireServer(t, h, WireConfig{})

	nacked := make(chan wire.Nack, 64)
	c, err := openWireSession(t, addr, wire.ClientConfig{Tenant: "home", OnNack: func(n wire.Nack) { nacked <- n }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An unknown device wedges the worker inside OnError with the event
	// already dequeued; everything after it parks in the 4-slot queue.
	if err := c.Send(wire.Event{Seq: 1, Device: "ghost", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []wire.Nack
	for i := 2; i <= 32 && len(got) == 0; i++ {
		if err := c.Send(wire.Event{Seq: uint64(i), Device: "light", Value: float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	drain:
		for {
			select {
			case n := <-nacked:
				got = append(got, n)
			case <-time.After(50 * time.Millisecond):
				break drain
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("queue overflow produced no nacks")
	}
	for _, n := range got {
		if n.Code != wire.CodeBackpressure {
			t.Fatalf("nack = %+v, want backpressure", n)
		}
		if n.Seq < 2 {
			t.Fatalf("nack echoes wrong seq: %+v", n)
		}
	}
	if st := s.Stats(); st.Nacks == 0 {
		t.Fatalf("server stats did not count nacks: %+v", st)
	}
}

// TestWireServerRefusals pins the handshake failure modes over a real
// fleet: a wrong token surfaces to the session opener as ErrBadAuth (a
// refused Hello, counted in AuthFailures), an unknown home as an
// unknown-tenant refusal of the Resume, and neither leaks an internal error
// identity or leaves a session behind.
func TestWireServerRefusals(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1}})
	defer f.Close()
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	addr, s := startWireServer(t, f, WireConfig{Token: "tok"})

	if _, err := openWireSession(t, addr, wire.ClientConfig{Token: "wrong", Tenant: "home"}); !errors.Is(err, wire.ErrBadAuth) {
		t.Fatalf("bad token error = %v", err)
	}
	_, err := openWireSession(t, addr, wire.ClientConfig{Token: "tok", Tenant: "nobody"})
	if err == nil || !strings.Contains(err.Error(), "unknown-tenant") {
		t.Fatalf("unknown tenant error = %v", err)
	}
	if st := s.Stats(); st.AuthFailures != 1 || st.Sessions != 0 {
		t.Fatalf("auth failures %d sessions %d, want 1 and 0", st.AuthFailures, st.Sessions)
	}
	// The refused connections left no alarm route behind: a valid producer
	// still binds and serves.
	c, err := openWireSession(t, addr, wire.ClientConfig{Token: "tok", Tenant: "home"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWireServerRestoresDefaultDelivery: when a producer closes its session,
// the home's alarms fall back to the host's Alarms channel instead of
// vanishing with the retired session.
func TestWireServerRestoresDefaultDelivery(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 2})
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	addr, _ := startWireServer(t, h, WireConfig{})
	c, err := openWireSession(t, addr, wire.ClientConfig{Tenant: "home"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The route teardown is asynchronous with the close; wait for the
	// ghost alarm to prove delivery reverted to the channel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, ev := range ghostSequence() {
			if err := h.Submit("home", ev); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case ta := <-h.Alarms():
			if ta.Tenant != "home" || ta.Alarm == nil {
				t.Fatalf("alarm = %+v", ta)
			}
			h.Close()
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("alarms never reverted to the channel after disconnect")
		}
	}
}

// seqRecorder notes the Seq of every event a decorator's Submit sees.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (r *seqRecorder) note(ev Event) {
	r.mu.Lock()
	r.seqs = append(r.seqs, ev.Seq)
	r.mu.Unlock()
}

func (r *seqRecorder) got() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...)
}

// recordingHost decorates a hub, embedding it the way a tracing wrapper
// would: only Submit is its own.
type recordingHost struct {
	*Hub
	rec *seqRecorder
}

func (h recordingHost) Submit(tenant string, ev Event) error {
	h.rec.note(ev)
	return h.Hub.Submit(tenant, ev)
}

// recordingShard decorates a fleet shard the same way.
type recordingShard struct {
	Shard
	rec *seqRecorder
}

func (s recordingShard) Submit(tenant string, ev Event) error {
	s.rec.note(ev)
	return s.Shard.Submit(tenant, ev)
}

// TestWireDecoratorsSeeEveryEvent pins the per-event fallbacks of the batch
// path: a Host that is not one of the package's own, served behind the wire,
// and a foreign Shard behind a fleet each get one Submit per event of a
// decoded batch frame, in order and with Seq intact.
func TestWireDecoratorsSeeEveryEvent(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	for _, tc := range []struct {
		name string
		host func(rec *seqRecorder) Host
	}{
		{"host", func(rec *seqRecorder) Host {
			return recordingHost{Hub: NewHub(HubConfig{Workers: 1}), rec: rec}
		}},
		{"shard", func(rec *seqRecorder) Host {
			fl := newFleet(FleetConfig{}, 0)
			if _, err := fl.AddShardFor(recordingShard{Shard: NewHub(HubConfig{Workers: 1}), rec: rec}); err != nil {
				t.Fatal(err)
			}
			return fl
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &seqRecorder{}
			host := tc.host(rec)
			defer host.Close()
			if err := host.Register("home", sys, TenantOptions{}); err != nil {
				t.Fatal(err)
			}
			addr, _ := startWireServer(t, host, WireConfig{})
			c, err := openWireSession(t, addr, wire.ClientConfig{Tenant: "home"})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var want []uint64
			for i, ev := range ghostSequence() {
				ev.Seq = uint64(100 + i)
				want = append(want, ev.Seq)
				if err := c.Send(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			waitProcessed(t, host, uint64(len(want)))
			if got := rec.got(); !slices.Equal(got, want) {
				t.Fatalf("decorator saw Seqs %v, want %v", got, want)
			}
		})
	}
}
