package hub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a Processor that records the events it handled.
type recorder struct {
	mu      sync.Mutex
	values  []float64
	alarmAt func(Event) bool
	err     error
	gate    chan struct{} // when non-nil, Handle blocks until the gate closes
}

func (r *recorder) Handle(ev Event) (bool, error) {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	r.values = append(r.values, ev.Value)
	r.mu.Unlock()
	alarmed := r.alarmAt != nil && r.alarmAt(ev)
	return alarmed, r.err
}

func (r *recorder) seen() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.values))
	copy(out, r.values)
	return out
}

// TestPerTenantOrdering is the ordering property test: each tenant's
// processor must see exactly the submitted sequence, in submission order,
// while many tenants are served in parallel.
func TestPerTenantOrdering(t *testing.T) {
	const tenants, events = 8, 500
	h := New(Config{Workers: 4, QueueSize: 32, BatchSize: 7})
	procs := make([]*recorder, tenants)
	for i := range procs {
		procs[i] = &recorder{}
		if err := h.Register(fmt.Sprintf("home-%d", i), procs[i], TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("home-%d", i)
			for j := 0; j < events; j++ {
				if err := h.Submit(name, Event{Device: "d", Value: float64(j)}); err != nil {
					t.Errorf("submit %s/%d: %v", name, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		got := p.seen()
		if len(got) != events {
			t.Fatalf("tenant %d processed %d events, want %d", i, len(got), events)
		}
		for j, v := range got {
			if v != float64(j) {
				t.Fatalf("tenant %d event %d out of order: got %v", i, j, v)
			}
		}
	}
}

// TestConcurrentProducersOneTenant hammers a single tenant from many
// goroutines; everything submitted must be processed exactly once.
func TestConcurrentProducersOneTenant(t *testing.T) {
	const producers, each = 16, 200
	h := New(Config{Workers: 4, QueueSize: 64})
	p := &recorder{}
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := h.Submit("home", Event{Device: "d", Value: 1}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.seen()); got != producers*each {
		t.Fatalf("processed %d events, want %d", got, producers*each)
	}
	s := h.Stats()
	if s.Total.Ingested != producers*each || s.Total.Processed != producers*each {
		t.Fatalf("stats = %+v", s.Total)
	}
}

func TestDropOldestPolicy(t *testing.T) {
	gate := make(chan struct{})
	p := &recorder{gate: gate}
	h := New(Config{Workers: 1, QueueSize: 4, Policy: DropOldest})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	// First event occupies the worker (blocked on the gate); the queue
	// behind it holds 4, so 20 submissions force at least 15 evictions.
	for j := 0; j < 20; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			t.Fatalf("drop-oldest submit should never fail: %v", err)
		}
	}
	close(gate)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats().Total
	if s.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
	if s.Processed+s.Dropped != s.Ingested {
		t.Fatalf("stats = %+v", s)
	}
	got := p.seen()
	// The newest event must have survived, and survivors stay ordered.
	if got[len(got)-1] != 19 {
		t.Errorf("newest event evicted: tail = %v", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("survivors out of order: %v", got)
		}
	}
}

func TestRejectPolicy(t *testing.T) {
	gate := make(chan struct{})
	p := &recorder{gate: gate}
	h := New(Config{Workers: 1, QueueSize: 2, Policy: Reject})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	var rejected int
	for j := 0; j < 10; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("unexpected error: %v", err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("full queue never rejected")
	}
	close(gate)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats().Total
	if s.Rejected != uint64(rejected) {
		t.Errorf("Rejected = %d, want %d", s.Rejected, rejected)
	}
	if s.Processed != s.Ingested {
		t.Errorf("stats = %+v", s)
	}
}

func TestBlockPolicyIsLossless(t *testing.T) {
	p := &recorder{}
	h := New(Config{Workers: 1, QueueSize: 1, Policy: Block})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for j := 0; j < n; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats().Total
	if s.Processed != n || s.Dropped != 0 || s.Rejected != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// rendezvousProc blocks in Handle until its peer's Handle is also running.
type rendezvousProc struct {
	started chan struct{} // closed when this proc enters Handle
	wait    chan struct{} // Handle returns once this closes
}

func (r *rendezvousProc) Handle(Event) (bool, error) {
	close(r.started)
	select {
	case <-r.wait:
		return false, nil
	case <-time.After(5 * time.Second):
		return false, errors.New("rendezvous timed out")
	}
}

// TestTenantsProcessedInParallel proves two tenants are in-flight
// simultaneously on different workers: each tenant's processor blocks until
// the other's has started, which can only resolve when both are being
// processed at once. A hub that serialized tenants would time out.
func TestTenantsProcessedInParallel(t *testing.T) {
	a := &rendezvousProc{started: make(chan struct{})}
	c := &rendezvousProc{started: make(chan struct{})}
	a.wait, c.wait = c.started, a.started
	h := New(Config{Workers: 2})
	if err := h.Register("a", a, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("c", c, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("a", Event{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("c", Event{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats().Total; s.Errors != 0 || s.Processed != 2 {
		t.Fatalf("tenants were not processed in parallel: %+v", s)
	}
}

// swapProc counts events per generation, proving a hot swap loses nothing.
type swapProc struct {
	n *atomic.Uint64
}

func (s *swapProc) Handle(Event) (bool, error) {
	s.n.Add(1)
	return false, nil
}

// TestHotSwapUnderLoad swaps the processor repeatedly while producers are
// running; every ingested event must be handled by exactly one generation.
func TestHotSwapUnderLoad(t *testing.T) {
	h := New(Config{Workers: 4, QueueSize: 64})
	var counts [2]atomic.Uint64
	if err := h.Register("home", &swapProc{n: &counts[0]}, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	const producers, each, swaps = 8, 300, 50
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := h.Submit("home", Event{Value: 1}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	for k := 0; k < swaps; k++ {
		gen := &counts[(k+1)%2]
		if err := h.Update("home", func(Processor) (Processor, error) {
			return &swapProc{n: gen}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	total := counts[0].Load() + counts[1].Load()
	if total != producers*each {
		t.Fatalf("handled %d events across generations, want %d (hot swap lost events)", total, producers*each)
	}
	s := h.Stats().Total
	if s.Dropped != 0 || s.Processed != producers*each {
		t.Fatalf("stats = %+v", s)
	}
}

func TestErrorsAreCountedAndReported(t *testing.T) {
	boom := errors.New("boom")
	p := &recorder{err: boom}
	var cbErrs atomic.Uint64
	h := New(Config{Workers: 2})
	err := h.Register("home", p, TenantConfig{OnError: func(_ Event, err error) {
		if errors.Is(err, boom) {
			cbErrs.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if err := h.Submit("home", Event{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats().Total
	if s.Errors != 5 || cbErrs.Load() != 5 {
		t.Fatalf("Errors = %d, callback = %d, want 5/5", s.Errors, cbErrs.Load())
	}
	if s.Processed != 5 {
		t.Errorf("erroring events must not stop the stream: processed = %d", s.Processed)
	}
}

func TestAlarmCounting(t *testing.T) {
	p := &recorder{alarmAt: func(ev Event) bool { return ev.Value > 0.5 }}
	h := New(Config{Workers: 1})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if err := h.Submit("home", Event{Value: float64(j % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats().Total; s.Alarms != 5 {
		t.Errorf("Alarms = %d, want 5", s.Alarms)
	}
}

func TestRegisterValidation(t *testing.T) {
	h := New(Config{Workers: 1})
	defer h.Close()
	if err := h.Register("", &recorder{}, TenantConfig{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := h.Register("home", nil, TenantConfig{}); err == nil {
		t.Error("nil processor accepted")
	}
	if err := h.Register("home", &recorder{}, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("home", &recorder{}, TenantConfig{}); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate register = %v", err)
	}
	if err := h.Submit("ghost", Event{}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant submit = %v", err)
	}
	if err := h.Update("ghost", func(p Processor) (Processor, error) { return p, nil }); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant update = %v", err)
	}
}

func TestDeregisterReleasesBlockedProducers(t *testing.T) {
	gate := make(chan struct{})
	p := &recorder{gate: gate}
	h := New(Config{Workers: 1, QueueSize: 1, Policy: Block})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	// Fill the worker and the queue, then block a producer.
	for j := 0; j < 2; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- h.Submit("home", Event{Value: 99}) }()
	time.Sleep(20 * time.Millisecond) // let the producer park on the queue
	if err := h.Deregister("home"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked submit after deregister = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deregister left the producer blocked")
	}
	if err := h.Deregister("home"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("double deregister = %v", err)
	}
	close(gate)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsAndIsIdempotent(t *testing.T) {
	p := &recorder{}
	h := New(Config{Workers: 2, QueueSize: 512})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 400; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.seen()); got != 400 {
		t.Fatalf("close drained %d/400 events", got)
	}
	if err := h.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
	if err := h.Submit("home", Event{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v", err)
	}
	if err := h.Register("late", p, TenantConfig{}); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close = %v", err)
	}
}

func TestStatsLatencyPercentiles(t *testing.T) {
	p := &recorder{}
	h := New(Config{Workers: 1, LatencySamples: 16})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		if err := h.Submit("home", Event{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if len(s.Tenants) != 1 || s.Tenants[0].Tenant != "home" {
		t.Fatalf("tenants = %+v", s.Tenants)
	}
	ts := s.Tenants[0]
	if ts.P50 <= 0 || ts.P99 < ts.P50 {
		t.Errorf("latency percentiles p50=%v p99=%v", ts.P50, ts.P99)
	}
	if s.Total.P99 != ts.P99 {
		t.Errorf("single-tenant total p99 %v != tenant p99 %v", s.Total.P99, ts.P99)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		DefaultPolicy: "default", Block: "block", DropOldest: "drop-oldest", Reject: "reject", Policy(9): "policy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, Reject} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"bogus", "", "default", "Block"} {
		if _, err := ParsePolicy(name); err == nil || err.Error() != fmt.Sprintf("unknown backpressure policy %q", name) {
			t.Errorf("ParsePolicy(%q) error = %v", name, err)
		}
	}
}

func TestPolicyOrDefault(t *testing.T) {
	for p, want := range map[Policy]Policy{
		DefaultPolicy: Reject, Block: Block, DropOldest: DropOldest, Reject: Reject, Policy(-1): Reject, Policy(7): Reject,
	} {
		if got := p.Or(Reject); got != want {
			t.Errorf("%v.Or(Reject) = %v, want %v", p, got, want)
		}
	}
	if got := (Config{Policy: Policy(9)}).withDefaults().Policy; got != Block {
		t.Errorf("hub policy(9) defaults to %v, want block", got)
	}
}
