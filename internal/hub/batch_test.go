package hub

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func batchOf(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Device: "d", Value: float64(i), Seq: uint64(i + 1)}
	}
	return evs
}

// queued reads a tenant's queue in FIFO order.
func queued(t *testing.T, h *Hub, name string) []float64 {
	t.Helper()
	tn, err := h.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	out := make([]float64, tn.n)
	for i := range out {
		out[i] = tn.buf[(tn.head+i)%len(tn.buf)].Value
	}
	return out
}

// TestChaosSubmitBatchBlockOverflow submits, under Block, a batch ten times
// the tenant's queue on a one-worker hub. The producer must schedule the
// tenant before it waits for room, or nobody drains the events it already
// queued and the batch never completes.
func TestChaosSubmitBatchBlockOverflow(t *testing.T) {
	h := New(Config{Workers: 1, QueueSize: 4, Policy: Block})
	defer h.Close()
	rec := &recorder{}
	if err := h.Register("home", rec, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	evs := batchOf(40)
	done := make(chan error, 1)
	go func() {
		n, err := h.SubmitBatch("home", evs)
		if err == nil && n != len(evs) {
			err = fmt.Errorf("admitted %d of %d", n, len(evs))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitBatch larger than the queue never completed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.seen()) < len(evs) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := rec.seen()
	if len(got) != len(evs) {
		t.Fatalf("processed %d events, want %d", len(got), len(evs))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("event %d processed as %v: order broken", i, v)
		}
	}
}

// TestChaosSubmitBatchRejectPrefix pins Reject on a batch: the events that
// fit are admitted, the first that does not is refused with
// ErrBackpressure, and the rest are not attempted.
func TestChaosSubmitBatchRejectPrefix(t *testing.T) {
	h := newHub(Config{QueueSize: 4, Policy: Reject})
	if err := h.Register("home", &recorder{}, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	n, err := h.SubmitBatch("home", batchOf(7))
	if n != 4 || !errors.Is(err, ErrBackpressure) {
		t.Fatalf("SubmitBatch = %d, %v; want 4, ErrBackpressure", n, err)
	}
	ts, _ := h.TenantStats("home")
	if ts.Ingested != 4 || ts.Rejected != 1 {
		t.Fatalf("ingested %d rejected %d, want 4 and 1", ts.Ingested, ts.Rejected)
	}
	if got := fmt.Sprint(queued(t, h, "home")); got != "[0 1 2 3]" {
		t.Fatalf("queue = %s", got)
	}
}

// TestChaosSubmitBatchDropOldestParity checks that a DropOldest batch
// evicts exactly what the same events submitted one at a time evict.
func TestChaosSubmitBatchDropOldestParity(t *testing.T) {
	batch := newHub(Config{QueueSize: 4, Policy: DropOldest})
	single := newHub(Config{QueueSize: 4, Policy: DropOldest})
	for _, h := range []*Hub{batch, single} {
		if err := h.Register("home", &recorder{}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.SubmitBatch("home", batchOf(2)); err != nil {
			t.Fatal(err)
		}
	}
	evs := batchOf(11)
	if n, err := batch.SubmitBatch("home", evs); n != len(evs) || err != nil {
		t.Fatalf("SubmitBatch = %d, %v", n, err)
	}
	for _, ev := range evs {
		if err := single.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	bq, sq := fmt.Sprint(queued(t, batch, "home")), fmt.Sprint(queued(t, single, "home"))
	if bq != sq || bq != "[7 8 9 10]" {
		t.Fatalf("batch queue %s, per-event queue %s, want both [7 8 9 10]", bq, sq)
	}
	bs, _ := batch.TenantStats("home")
	ss, _ := single.TenantStats("home")
	if bs.Dropped != ss.Dropped || bs.Ingested != ss.Ingested || bs.Dropped != 9 {
		t.Fatalf("batch dropped %d ingested %d, per-event dropped %d ingested %d",
			bs.Dropped, bs.Ingested, ss.Dropped, ss.Ingested)
	}
}

// TestQuarantineProbeOneEventPerBatch pins the readmission probe on a
// batch: a quarantined tenant whose backoff elapsed admits exactly one
// event as the probe and refuses the next with ErrQuarantined.
func TestQuarantineProbeOneEventPerBatch(t *testing.T) {
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	h := newHub(Config{Clock: func() time.Time { return now }})
	if err := h.Register("home", &recorder{}, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	tn, _ := h.lookup("home")
	tn.mu.Lock()
	tn.health, tn.quarantineUntil = Quarantined, now.Add(-time.Second)
	tn.mu.Unlock()
	n, err := h.SubmitBatch("home", batchOf(5))
	if n != 1 || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("SubmitBatch = %d, %v; want the probe admitted, then ErrQuarantined", n, err)
	}
	if n, err := h.SubmitBatch("home", batchOf(5)); n != 0 || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("SubmitBatch while probing = %d, %v; want 0, ErrQuarantined", n, err)
	}
	ts, _ := h.TenantStats("home")
	if ts.Health != Probing || ts.Ingested != 1 || ts.Shed != 2 {
		t.Fatalf("health %s ingested %d shed %d, want probing, 1, 2", ts.Health, ts.Ingested, ts.Shed)
	}
}

// TestChaosHubSubmitZeroAlloc pins Submit, a batch of one, and a full
// SubmitBatch at zero steady-state allocations. The queue is emptied in
// place between runs and the tenant stays scheduled, so the measurement
// covers the submit path alone.
func TestChaosHubSubmitZeroAlloc(t *testing.T) {
	h := newHub(Config{QueueSize: 128})
	if err := h.Register("home", &keyedProc{}, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	ev := Event{Device: "d", Value: 1}
	if err := h.Submit("home", ev); err != nil {
		t.Fatal(err)
	}
	tn, _ := h.lookup("home")
	evs := batchOf(64)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
		if _, err := h.SubmitBatch("home", evs); err != nil {
			t.Fatal(err)
		}
		tn.mu.Lock()
		tn.head, tn.n = 0, 0
		tn.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("Submit + SubmitBatch allocate %.1f allocs/op steady-state, want 0", allocs)
	}
	if ts, _ := h.TenantStats("home"); ts.Ingested < 1000*65 {
		t.Fatalf("ingested %d events; measurement was vacuous", ts.Ingested)
	}
}

// scriptProc fails every event whose Value is negative.
type scriptProc struct{ handled int }

func (p *scriptProc) Handle(ev Event) (bool, error) {
	p.handled++
	if ev.Value < 0 {
		return false, errors.New("scripted failure")
	}
	return false, nil
}

// script turns "S" (success) and "F" (failure) into a batch for scriptProc.
func script(s string) []Event {
	evs := make([]Event, len(s))
	for i, c := range s {
		evs[i].Value = 1
		if c == 'F' {
			evs[i].Value = -1
		}
	}
	return evs
}

// TestQuarantineBreakerSkipsLockWhenClean drives the circuit breaker
// through drained batches, one runBatch per batch, across the successes
// that skip the tenant lock on a clean breaker: a failure streak broken by
// a success never trips, a probing tenant's first success restores it, and
// a trip mid-batch sheds the rest of the batch.
func TestQuarantineBreakerSkipsLockWhenClean(t *testing.T) {
	for _, c := range []struct {
		name    string
		after   int
		batches []string
		health  Health
		handled int
		shed    uint64
		backoff time.Duration
	}{
		{"streaks broken by a success never trip", 4, []string{"SFFFSFFF"}, Healthy, 8, 0, 0},
		{"probe success restores and forgets the backoff", 2, []string{"SFF", "S", "F"}, Healthy, 5, 0, 0},
		{"probe failure re-trips with a doubled backoff", 2, []string{"SFF", "F"}, Quarantined, 4, 0, 2 * time.Second},
		{"trip mid-batch sheds the rest", 3, []string{"SSFFFSSS"}, Quarantined, 5, 3, time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
			h := newHub(Config{QuarantineAfter: c.after, BatchSize: 16, Clock: func() time.Time { return now }})
			p := &scriptProc{}
			if err := h.Register("home", p, TenantConfig{}); err != nil {
				t.Fatal(err)
			}
			tn, _ := h.lookup("home")
			for _, b := range c.batches {
				now = now.Add(time.Minute) // past any backoff: a quarantined tenant admits a probe
				if _, err := h.SubmitBatch("home", script(b)); err != nil {
					t.Fatal(err)
				}
				tn.runBatch(h.cfg.BatchSize)
			}
			ts, _ := h.TenantStats("home")
			tn.mu.Lock()
			backoff := tn.backoff
			tn.mu.Unlock()
			if ts.Health != c.health || p.handled != c.handled || ts.Shed != c.shed || backoff != c.backoff {
				t.Fatalf("health %s handled %d shed %d backoff %v; want %s, %d, %d, %v",
					ts.Health, p.handled, ts.Shed, backoff, c.health, c.handled, c.shed, c.backoff)
			}
		})
	}
}

// BenchmarkHubOverhead times the hub's fixed cost per event with a no-op
// processor: each op Submits 64 events to each of 64 tenants (four model
// keys, interleaved across tenants) and then drains the run queue on the
// benchmark goroutine through the workers' own drainTurn. It reports
// ns/event and allocs/event over the whole op: lookup, enqueue, scheduling,
// grouping, the drained batch and the per-event bookkeeping.
func BenchmarkHubOverhead(b *testing.B) {
	const tenants, perTenant = 64, 64
	h := newHub(Config{})
	h.stopping = true // drainTurn returns once the run queue is empty
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("home-%02d", i)
		if err := h.Register(names[i], &keyedProc{key: uint64(i%4 + 1)}, TenantConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	group := make([]*tenant, 0, h.cfg.GroupBatch)
	ev := Event{Device: "d", Value: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perTenant; j++ {
			for _, name := range names {
				if err := h.Submit(name, ev); err != nil {
					b.Fatal(err)
				}
			}
		}
		for ok := true; ok; {
			group, ok = h.drainTurn(group)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N) * tenants * perTenant
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}
