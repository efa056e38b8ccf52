package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// fakeTenant is one tenant's state inside the fake backend.
type fakeTenant struct {
	model  []byte
	state  []byte
	queue  int
	policy uint8
	sink   func(wire.Alarm)
	events []wire.Event
}

// fakeBackend records every call so tests can assert exactly-once admission
// and envelope fidelity.
type fakeBackend struct {
	mu        sync.Mutex
	token     string
	tenants   map[string]*fakeTenant
	submitErr func(tenant string, ev wire.Event) error
	onSubmit  func(tenant string, ev wire.Event)
}

func newFakeBackend(token string) *fakeBackend {
	return &fakeBackend{token: token, tenants: make(map[string]*fakeTenant)}
}

func (b *fakeBackend) Authenticate(token string) error {
	if b.token != "" && token != b.token {
		return errors.New("bad token")
	}
	return nil
}

func (b *fakeBackend) Register(tenant string, model, state []byte, queue int, policy uint8) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.tenants[tenant]; dup {
		return fmt.Errorf("tenant %q exists", tenant)
	}
	b.tenants[tenant] = &fakeTenant{
		model:  append([]byte(nil), model...),
		state:  append([]byte(nil), state...),
		queue:  queue,
		policy: policy,
	}
	return nil
}

func (b *fakeBackend) Swap(tenant string, model []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenants[tenant]
	if t == nil {
		return errors.New("no such tenant")
	}
	t.model = append([]byte(nil), model...)
	return nil
}

func (b *fakeBackend) Deregister(tenant string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.tenants[tenant]; !ok {
		return errors.New("no such tenant")
	}
	delete(b.tenants, tenant)
	return nil
}

func (b *fakeBackend) SubmitBatch(tenant string, evs []wire.Event) (int, error) {
	b.mu.Lock()
	t := b.tenants[tenant]
	submitErr := b.submitErr
	onSubmit := b.onSubmit
	b.mu.Unlock()
	if t == nil {
		return 0, errors.New("no such tenant")
	}
	for i, ev := range evs {
		if submitErr != nil {
			if err := submitErr(tenant, ev); err != nil {
				return i, err
			}
		}
		b.mu.Lock()
		t.events = append(t.events, ev)
		b.mu.Unlock()
		if onSubmit != nil {
			onSubmit(tenant, ev)
		}
	}
	return len(evs), nil
}

func (b *fakeBackend) RouteAlarms(tenant string, sink func(wire.Alarm)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenants[tenant]
	if t == nil {
		return errors.New("no such tenant")
	}
	t.sink = sink
	return nil
}

func (b *fakeBackend) Quiesce(tenant string) error { return nil }

func (b *fakeBackend) Export(tenant string) (model, state []byte, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenants[tenant]
	if t == nil {
		return nil, nil, errors.New("no such tenant")
	}
	return append([]byte(nil), t.model...), append([]byte(nil), t.state...), nil
}

func (b *fakeBackend) Flush(tenant string) error   { return nil }
func (b *fakeBackend) Drain(d time.Duration) error { return nil }
func (b *fakeBackend) StatsJSON() ([]byte, error)  { return []byte(`{"fake":true}`), nil }
func (b *fakeBackend) raise(tenant string, a wire.Alarm) {
	b.mu.Lock()
	t := b.tenants[tenant]
	var sink func(wire.Alarm)
	if t != nil {
		sink = t.sink
	}
	b.mu.Unlock()
	if sink != nil {
		sink(a)
	}
}

func (b *fakeBackend) eventCount(tenant string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.tenants[tenant]; t != nil {
		return len(t.events)
	}
	return 0
}

func (b *fakeBackend) eventSeqs(tenant string) []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tenants[tenant]
	if t == nil {
		return nil
	}
	seqs := make([]uint64, len(t.events))
	for i, ev := range t.events {
		seqs[i] = ev.Seq
	}
	return seqs
}

// startWorker boots a worker on loopback and returns it with its address.
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, string) {
	t.Helper()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve(ln) }()
	t.Cleanup(func() {
		w.Close()
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	})
	return w, ln.Addr().String()
}

// killLinks severs every live worker-side connection, simulating a network
// cut without stopping the worker.
func (w *Worker) killLinks() { w.ep.CloseConns() }

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testEvent(seq uint64) wire.Event {
	return wire.Event{
		Seq:    seq,
		Time:   time.Unix(0, int64(seq)*int64(time.Millisecond)).UTC(),
		Device: fmt.Sprintf("dev-%d", seq%7),
		Value:  float64(seq) * 0.5,
	}
}

func TestClusterEndToEnd(t *testing.T) {
	backend := newFakeBackend("secret")
	w, addr := startWorker(t, WorkerConfig{Backend: backend, AckEvery: 8})

	var alarmMu sync.Mutex
	var alarms []wire.Alarm
	p, err := Open(ProxyConfig{Addr: addr, Token: "secret", Router: "test", KeepAlive: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()

	// Register with a model big enough to need several envelope chunks.
	model := make([]byte, 300<<10)
	for i := range model {
		model[i] = byte(i * 31)
	}
	state := []byte("detector-state")
	sink := func(a wire.Alarm) {
		alarmMu.Lock()
		alarms = append(alarms, a)
		alarmMu.Unlock()
	}
	if err := p.Register("t1", model, state, 64, 1, false, sink); err != nil {
		t.Fatalf("Register: %v", err)
	}
	backend.mu.Lock()
	ft := backend.tenants["t1"]
	backend.mu.Unlock()
	if ft == nil {
		t.Fatal("tenant not registered on backend")
	}
	if string(ft.model) != string(model) {
		t.Fatalf("model mangled in transit: got %d bytes", len(ft.model))
	}
	if string(ft.state) != string(state) || ft.queue != 64 || ft.policy != 1 {
		t.Fatalf("registration params mangled: state=%q queue=%d policy=%d", ft.state, ft.queue, ft.policy)
	}

	const n = 100
	for seq := uint64(1); seq <= n; seq++ {
		if err := p.Submit("t1", testEvent(seq)); err != nil {
			t.Fatalf("Submit(%d): %v", seq, err)
		}
	}
	waitCond(t, 5*time.Second, "all events admitted", func() bool { return backend.eventCount("t1") == n })
	seqs := backend.eventSeqs("t1")
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (order/loss)", i, s, i+1)
		}
	}

	// An alarm raised by the backend streams to the proxy's sink.
	backend.raise("t1", wire.Alarm{Seq: 42, Score: 0.9, Events: []wire.AlarmEvent{{Device: "dev-0", State: 1, Score: 0.9}}})
	waitCond(t, 5*time.Second, "alarm delivery", func() bool {
		alarmMu.Lock()
		defer alarmMu.Unlock()
		return len(alarms) == 1
	})
	alarmMu.Lock()
	if alarms[0].Seq != 42 || alarms[0].Score != 0.9 || len(alarms[0].Events) != 1 {
		t.Fatalf("alarm mangled: %+v", alarms[0])
	}
	alarmMu.Unlock()

	// Acks drain the window once the stream goes quiet (keepalive flush).
	waitCond(t, 5*time.Second, "window drain", func() bool { return p.Pending() == 0 })

	// Quiesce then export: the envelope round-trips byte-identical.
	if err := p.Quiesce("t1"); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	gotModel, gotState, err := p.Export("t1")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if string(gotModel) != string(model) || string(gotState) != string(state) {
		t.Fatalf("export mismatch: model %d bytes, state %q", len(gotModel), gotState)
	}

	// Model swap reaches the backend.
	if err := p.Swap("t1", []byte("model-v2")); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	backend.mu.Lock()
	swapped := string(backend.tenants["t1"].model)
	backend.mu.Unlock()
	if swapped != "model-v2" {
		t.Fatalf("swap did not land: %q", swapped)
	}

	// Stats document embeds worker and backend sections.
	doc, err := p.StatsDoc()
	if err != nil {
		t.Fatalf("StatsDoc: %v", err)
	}
	var ws WorkerStats
	if err := json.Unmarshal(doc, &ws); err != nil {
		t.Fatalf("stats doc: %v\n%s", err, doc)
	}
	if ws.Events != n || ws.Tenants != 1 || string(ws.Backend) != `{"fake":true}` {
		t.Fatalf("stats doc wrong: events=%d tenants=%d backend=%s", ws.Events, ws.Tenants, ws.Backend)
	}

	if err := p.Flush("t1"); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Deregister removes the tenant on both sides.
	if err := p.Deregister("t1"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if backend.eventCount("t1") != 0 {
		t.Fatal("tenant survived deregister on backend")
	}
	if err := p.Submit("t1", testEvent(1)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Submit after deregister: %v, want ErrUnknownTenant", err)
	}
	if st := w.Stats(); st.EnvelopeBytesIn == 0 || st.EnvelopeBytesOut == 0 {
		t.Fatalf("envelope byte counters not moving: %+v", st)
	}
}

// TestProxyMalformedAlarmEndsLink has the worker stream alarms its peer's
// decoder refuses: a score outside [0, 1] and an event state of 2. The
// proxy must not drop such a frame silently: it logs the parse error with
// the frame type, delivers nothing, and ends the link (it turns degraded),
// so the link's own reconnect and resume take over. Its receipt moves past
// the refused alarm first, so the resume prunes it from the worker's bank:
// the link ends once and resumes once, and a later good alarm is
// delivered.
func TestProxyMalformedAlarmEndsLink(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alarm wire.Alarm
	}{
		{"score", wire.Alarm{Seq: 1, Score: 1.5, Events: []wire.AlarmEvent{{Device: "dev-0", State: 1, Score: 0.9}}}},
		{"state", wire.Alarm{Seq: 1, Score: 0.9, Events: []wire.AlarmEvent{{Device: "dev-0", State: 2, Score: 0.9}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := newFakeBackend("")
			_, addr := startWorker(t, WorkerConfig{Backend: backend})
			logs := make(chan string, 256)
			degraded := make(chan struct{}, 1)
			var degradations atomic.Int32
			p, err := Open(ProxyConfig{
				Addr:        addr,
				BackoffMin:  5 * time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
				MaxAttempts: 400,
				JitterSeed:  3,
				OnStateChange: func(st wire.SessionState) {
					if st == wire.StateDegraded {
						degradations.Add(1)
						select {
						case degraded <- struct{}{}:
						default:
						}
					}
				},
				Logf: func(format string, args ...any) {
					select {
					case logs <- fmt.Sprintf(format, args...):
					default:
					}
				},
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer p.Close()
			var alarmMu sync.Mutex
			var alarms []wire.Alarm
			if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(a wire.Alarm) {
				alarmMu.Lock()
				alarms = append(alarms, a)
				alarmMu.Unlock()
			}); err != nil {
				t.Fatalf("Register: %v", err)
			}

			backend.raise("t1", tc.alarm)
			deadline := time.After(10 * time.Second)
			for found := false; !found; {
				select {
				case line := <-logs:
					found = strings.Contains(line, "bad alarm-stream frame") && strings.Contains(line, wire.ErrBadFrame.Error())
				case <-deadline:
					t.Fatal("malformed alarm-stream frame dropped without a log line")
				}
			}
			select {
			case <-degraded:
			case <-time.After(10 * time.Second):
				t.Fatal("link stayed up after the refused frame")
			}
			alarmMu.Lock()
			if len(alarms) != 0 {
				t.Fatalf("refused alarm reached the sink: %+v", alarms)
			}
			alarmMu.Unlock()

			waitCond(t, 10*time.Second, "the link to resume", func() bool { return p.Stats().Reconnects == 1 && p.Stats().State == wire.StateConnected })
			good := wire.Alarm{Seq: 2, Score: 0.9, Events: []wire.AlarmEvent{{Device: "dev-0", State: 1, Score: 0.9}}}
			backend.raise("t1", good)
			waitCond(t, 10*time.Second, "the good alarm", func() bool {
				alarmMu.Lock()
				defer alarmMu.Unlock()
				return len(alarms) == 1
			})
			alarmMu.Lock()
			defer alarmMu.Unlock()
			if alarms[0].Seq != good.Seq {
				t.Fatalf("delivered %+v, want the good alarm", alarms)
			}
			st := p.Stats()
			if st.Reconnects != 1 || st.SkippedAlarms != 1 || st.Alarms != 1 || degradations.Load() != 1 {
				t.Fatalf("reconnects %d skipped %d alarms %d degradations %d, want 1 each",
					st.Reconnects, st.SkippedAlarms, st.Alarms, degradations.Load())
			}
		})
	}
}

// TestClusterResumeExactlyOnce cuts the link repeatedly mid-stream and
// asserts every event is admitted exactly once, in order, and every alarm
// is delivered exactly once despite ring replays.
func TestClusterResumeExactlyOnce(t *testing.T) {
	backend := newFakeBackend("")
	// Alarm on every 10th event, raised from the submit path like a real
	// detection would be.
	backend.onSubmit = func(tenant string, ev wire.Event) {
		if ev.Seq%10 == 0 {
			backend.raise(tenant, wire.Alarm{Seq: ev.Seq, Score: 1})
		}
	}
	w, addr := startWorker(t, WorkerConfig{Backend: backend, AckEvery: 4})

	var alarmMu sync.Mutex
	alarmSeqs := make(map[uint64]int)
	p, err := Open(ProxyConfig{
		Addr:        addr,
		KeepAlive:   20 * time.Millisecond,
		BackoffMin:  2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MaxAttempts: 200,
		JitterSeed:  7,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(a wire.Alarm) {
		alarmMu.Lock()
		alarmSeqs[a.Seq]++
		alarmMu.Unlock()
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const n = 600
	for seq := uint64(1); seq <= n; seq++ {
		if seq%150 == 0 {
			w.killLinks() // sever mid-stream; the proxy must resume
		}
		if err := p.Submit("t1", testEvent(seq)); err != nil {
			t.Fatalf("Submit(%d): %v", seq, err)
		}
	}
	waitCond(t, 15*time.Second, "all events admitted", func() bool { return backend.eventCount("t1") >= n })
	seqs := backend.eventSeqs("t1")
	if len(seqs) != n {
		t.Fatalf("admitted %d events, want exactly %d (duplicates leaked past the watermark)", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, s, i+1)
		}
	}

	waitCond(t, 15*time.Second, "all alarms delivered", func() bool {
		alarmMu.Lock()
		defer alarmMu.Unlock()
		return len(alarmSeqs) == n/10
	})
	alarmMu.Lock()
	for seq, count := range alarmSeqs {
		if count != 1 {
			t.Fatalf("alarm %d delivered %d times", seq, count)
		}
	}
	alarmMu.Unlock()

	st := p.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("expected at least one reconnect, stats: %+v", st)
	}
	waitCond(t, 10*time.Second, "window drain", func() bool { return p.Pending() == 0 })
}

// TestProxyBatchesFitWorkerFrameLimit streams two tenants' events with long
// device names at a worker whose frame limit holds only four of them. The
// proxy's link writer merges each tenant's events into SubmitBatch frames,
// and every merged frame must stay under the limit the worker announced:
// one oversized frame would cut the link. A Quiesce sent between events
// must still find every event before it admitted.
func TestProxyBatchesFitWorkerFrameLimit(t *testing.T) {
	backend := newFakeBackend("")
	_, addr := startWorker(t, WorkerConfig{Backend: backend, MaxFrame: 1100})
	p, err := Open(ProxyConfig{Addr: addr, KeepAlive: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	tenants := []string{"t1", "t2"}
	for _, name := range tenants {
		if err := p.Register(name, []byte("m"), nil, 0, 0, false, nil); err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
	}
	const n = 2000
	var wg sync.WaitGroup
	for _, name := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= n; seq++ {
				ev := testEvent(seq)
				ev.Device = fmt.Sprintf("%0200d", seq%7)
				if err := p.Submit(name, ev); err != nil {
					t.Errorf("Submit(%s, %d): %v", name, seq, err)
					return
				}
				if seq == n/2 && name == "t1" {
					if err := p.Quiesce(name); err != nil {
						t.Errorf("Quiesce: %v", err)
					} else if got := backend.eventCount(name); got < n/2 {
						t.Errorf("Quiesce returned with %d of %d earlier events admitted", got, n/2)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range tenants {
		waitCond(t, 10*time.Second, "all events admitted", func() bool { return backend.eventCount(name) >= n })
		for i, s := range backend.eventSeqs(name) {
			if s != uint64(i+1) {
				t.Fatalf("%s event %d has seq %d, want %d", name, i, s, i+1)
			}
		}
	}
	if st := p.Stats(); st.Reconnects != 0 || st.Retransmits != 0 {
		t.Fatalf("link was cut (an oversized batch?): %+v", st)
	}
}

// TestClusterNackPrunesWindow: worker-side refusals are decided events —
// they surface via OnNack and advance the ack watermark so the window
// drains without admissions.
func TestClusterNackPrunesWindow(t *testing.T) {
	backend := newFakeBackend("")
	refused := errors.New("queue full")
	backend.submitErr = func(tenant string, ev wire.Event) error {
		if ev.Seq%2 == 1 {
			return refused
		}
		return nil
	}
	_, addr := startWorker(t, WorkerConfig{
		Backend:  backend,
		AckEvery: 1000, // pruning must come from nacks and keepalive, not cadence
		Classify: func(err error) wire.Code {
			if errors.Is(err, refused) {
				return wire.CodeBackpressure
			}
			return wire.CodeInternal
		},
	})

	var nackMu sync.Mutex
	var nacks []wire.ShardNack
	p, err := Open(ProxyConfig{
		Addr:      addr,
		KeepAlive: 20 * time.Millisecond,
		OnNack: func(n wire.ShardNack) {
			nackMu.Lock()
			nacks = append(nacks, n)
			nackMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(wire.Alarm) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		if err := p.Submit("t1", testEvent(seq)); err != nil {
			t.Fatalf("Submit(%d): %v", seq, err)
		}
	}
	waitCond(t, 5*time.Second, "nack delivery", func() bool {
		nackMu.Lock()
		defer nackMu.Unlock()
		return len(nacks) == n/2
	})
	nackMu.Lock()
	for _, nk := range nacks {
		if nk.Code != wire.CodeBackpressure || nk.Tenant != "t1" {
			t.Fatalf("nack mangled: %+v", nk)
		}
	}
	nackMu.Unlock()
	if got := backend.eventCount("t1"); got != n/2 {
		t.Fatalf("admitted %d, want %d", got, n/2)
	}
	waitCond(t, 5*time.Second, "window drain via nacks+keepalive", func() bool { return p.Pending() == 0 })
}

// TestClusterRejectPolicy: a tenant registered with reject backpressure
// refuses Submit with a typed backpressure nack once its window fills.
func TestClusterRejectPolicy(t *testing.T) {
	backend := newFakeBackend("")
	block := make(chan struct{})
	backend.submitErr = func(string, wire.Event) error { <-block; return nil }
	_, addr := startWorker(t, WorkerConfig{Backend: backend})

	p, err := Open(ProxyConfig{Addr: addr, Window: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { close(block); p.Close() }()
	if err := p.Register("t1", []byte("m"), nil, 0, 0, true, func(wire.Alarm) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var rejected error
	for seq := uint64(1); seq <= 64; seq++ {
		if err := p.Submit("t1", testEvent(seq)); err != nil {
			rejected = err
			break
		}
	}
	var nk wire.ShardNack
	if !errors.As(rejected, &nk) || nk.Code != wire.CodeBackpressure {
		t.Fatalf("full window returned %v, want backpressure ShardNack", rejected)
	}
}

// TestWorkerHalfOpenReap: a connection that never sends its ShardHello is
// evicted at the hello deadline and does not hold worker state.
func TestWorkerHalfOpenReap(t *testing.T) {
	backend := newFakeBackend("")
	w, addr := startWorker(t, WorkerConfig{Backend: backend, HelloTimeout: 50 * time.Millisecond})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("half-open connection was not closed by the worker")
	}
	waitCond(t, 5*time.Second, "link reap", func() bool {
		return w.ep.Conns() == 0
	})
	if st := w.Stats(); st.AuthFailures == 0 {
		t.Fatalf("half-open eviction not counted: %+v", st)
	}
}

// TestClusterAuthReject: a bad token fails Open with the worker's typed
// bad-auth ShardErr.
func TestClusterAuthReject(t *testing.T) {
	backend := newFakeBackend("secret")
	w, addr := startWorker(t, WorkerConfig{Backend: backend})
	_, err := Open(ProxyConfig{Addr: addr, Token: "wrong"})
	var se wire.ShardErr
	if !errors.As(err, &se) || se.Code != wire.CodeBadAuth {
		t.Fatalf("Open with bad token: %v, want bad-auth ShardErr", err)
	}
	waitCond(t, 5*time.Second, "auth failure count", func() bool { return w.Stats().AuthFailures == 1 })
}

// TestClusterGoroutineLeak: repeated proxy+worker lifecycles leave no
// goroutines behind — links, writers, readers, keepalive, and reconnect
// machinery all terminate.
func TestClusterGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		backend := newFakeBackend("")
		w, err := NewWorker(WorkerConfig{Backend: backend})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- w.Serve(ln) }()

		p, err := Open(ProxyConfig{Addr: ln.Addr().String(), KeepAlive: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(wire.Alarm) {}); err != nil {
			t.Fatalf("Register: %v", err)
		}
		for seq := uint64(1); seq <= 50; seq++ {
			if err := p.Submit("t1", testEvent(seq)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		// One cycle also exercises teardown of a degraded proxy: kill the
		// link and close while the reconnect loop is running.
		if i%2 == 1 {
			w.killLinks()
			time.Sleep(5 * time.Millisecond)
		}
		p.Close()
		w.Close()
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	waitCond(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestClusterResumeAfterWorkerRestart: a brand-new worker process (empty
// tenant table) answers resume with unknown-tenant; the proxy logs and
// keeps the link serving other tenants rather than failing the reconnect.
func TestClusterResumeAfterWorkerRestart(t *testing.T) {
	backend := newFakeBackend("")
	w1, err := NewWorker(WorkerConfig{Backend: backend})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	done1 := make(chan error, 1)
	go func() { done1 <- w1.Serve(ln) }()

	p, err := Open(ProxyConfig{
		Addr:        addr,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 400,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(wire.Alarm) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Restart: stop worker 1 entirely, bind a fresh worker (fresh backend,
	// no tenants) on the same address.
	w1.Close()
	<-done1
	var ln2 net.Listener
	waitCond(t, 5*time.Second, "rebind", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	backend2 := newFakeBackend("")
	w2, err := NewWorker(WorkerConfig{Backend: backend2})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- w2.Serve(ln2) }()
	defer func() { w2.Close(); <-done2 }()

	waitCond(t, 10*time.Second, "link recovery", func() bool {
		return p.Stats().Reconnects >= 1 && p.State() == wire.StateConnected
	})
	// The tenant is stranded (the new worker never saw it) but the link is
	// healthy: a fresh registration works.
	if err := p.Register("t2", []byte("m2"), nil, 0, 0, false, func(wire.Alarm) {}); err != nil {
		t.Fatalf("Register on recovered link: %v", err)
	}
	if err := p.Submit("t2", testEvent(1)); err != nil {
		t.Fatalf("Submit on recovered link: %v", err)
	}
	waitCond(t, 5*time.Second, "event admitted", func() bool { return backend2.eventCount("t2") == 1 })
}

// TestChunked covers the envelope chunk splitter's edges.
func TestChunked(t *testing.T) {
	for _, tc := range []struct {
		n, size int
		want    []int
	}{
		{0, 4, nil},
		{3, 4, []int{3}},
		{4, 4, []int{4}},
		{9, 4, []int{4, 4, 1}},
	} {
		var got []int
		for _, c := range chunked(make([]byte, tc.n), tc.size) {
			got = append(got, len(c))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("chunked(%d, %d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
	}
}

// TestLinkStateString pins the state names used in health JSON.
func TestLinkStateString(t *testing.T) {
	want := map[wire.SessionState]string{wire.StateConnected: "connected", wire.StateDegraded: "degraded", wire.StateGaveUp: "gave-up"}
	keys := make([]int, 0, len(want))
	for k := range want {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		if got := wire.SessionState(k).String(); got != want[wire.SessionState(k)] {
			t.Errorf("SessionState(%d).String() = %q, want %q", k, got, want[wire.SessionState(k)])
		}
	}
}
