package hub

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCloseReleasesBlockedProducers pins the Close half of the blocked-
// producer contract (Deregister's half has its own test): a producer parked
// on a full Block-policy queue must be released with an error when the hub
// shuts down, never left blocked forever.
func TestCloseReleasesBlockedProducers(t *testing.T) {
	gate := make(chan struct{})
	p := &recorder{gate: gate}
	h := New(Config{Workers: 1, QueueSize: 1, Policy: Block})
	if err := h.Register("home", p, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	// Fill the worker and the queue, then park a producer on the full queue.
	for j := 0; j < 2; j++ {
		if err := h.Submit("home", Event{Value: float64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- h.Submit("home", Event{Value: 99}) }()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- h.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked submit during close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close left the producer blocked")
	}
	close(gate) // let the in-flight Handle finish so Close can drain
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestRegisterCloseRace pins the Register/Close TOCTOU fix: when Register
// races Close, it either returns ErrClosed or succeeds — and a successful
// registration is always swept by Close, so its blocked producers are
// released and the hub never deadlocks or panics.
func TestRegisterCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		h := New(Config{Workers: 2, QueueSize: 4})
		if err := h.Register("seed", &recorder{}, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		regErrs := make([]error, 8)
		for i := range regErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				regErrs[i] = h.Register(fmt.Sprintf("late-%d", i), &recorder{}, TenantConfig{})
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		wg.Wait()
		for i, err := range regErrs {
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: racing register %d = %v, want nil or ErrClosed", round, i, err)
			}
		}
		// Whatever the race outcome, the hub is fully closed now.
		if err := h.Submit("seed", Event{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: submit after close = %v", round, err)
		}
	}
}

// TestConcurrentSubmitDeregisterCloseStress hammers the full lifecycle —
// producers submitting under every policy while tenants are deregistered
// and the hub closes mid-flight — and asserts the only errors producers
// ever see are the documented ones.
func TestConcurrentSubmitDeregisterCloseStress(t *testing.T) {
	const tenants, producers, events = 6, 3, 200
	h := New(Config{Workers: 4, QueueSize: 8, Policy: Block})
	policies := []Policy{Block, DropOldest, Reject}
	for i := 0; i < tenants; i++ {
		cfg := TenantConfig{Policy: policies[i%len(policies)]}
		if err := h.Register(fmt.Sprintf("home-%d", i), &recorder{}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(i, p int) {
				defer wg.Done()
				name := fmt.Sprintf("home-%d", i)
				rng := rand.New(rand.NewSource(int64(i*100 + p)))
				for j := 0; j < events; j++ {
					err := h.Submit(name, Event{Value: float64(j)})
					switch {
					case err == nil, errors.Is(err, ErrClosed),
						errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrBackpressure):
					default:
						t.Errorf("submit %s: unexpected error %v", name, err)
						return
					}
					if rng.Intn(64) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				}
			}(i, p)
		}
	}
	// Deregister tenants while producers are mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < tenants/2; i++ {
			time.Sleep(time.Duration(2+i) * time.Millisecond)
			if err := h.Deregister(fmt.Sprintf("home-%d", i)); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("deregister: %v", err)
			}
		}
	}()
	// And close the hub while all of that is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Errorf("idempotent close after stress = %v", err)
	}
}

// TestTenantTableStress races the copy-on-write tenant table (run under
// -race): Register/Deregister churn on some names while producers Submit
// and SubmitBatch to stable and churned names and readers take Stats and
// TenantStats, and the hub closes with the churn still running. A refused
// submit is only ever ErrUnknownTenant or ErrClosed, stable tenants lose no
// event, and every producer returns.
func TestTenantTableStress(t *testing.T) {
	const stable, churned, events = 3, 3, 600
	h := New(Config{Workers: 2, QueueSize: 8, BatchSize: 4})
	stableProcs := make([]*recorder, stable)
	for i := range stableProcs {
		stableProcs[i] = &recorder{}
		if err := h.Register(fmt.Sprintf("stable-%d", i), stableProcs[i], TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	refusedOK := func(err error) bool {
		return errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrClosed)
	}

	var stableWG, rest sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// Churn: register and deregister the churned names until the hub
	// closes; a Register that loses to Close must say ErrClosed.
	for i := 0; i < churned; i++ {
		rest.Add(1)
		go func(name string) {
			defer rest.Done()
			for {
				err := h.Register(name, &recorder{}, TenantConfig{})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				runtime.Gosched()
				if err := h.Deregister(name); err != nil && !errors.Is(err, ErrUnknownTenant) {
					t.Errorf("deregister %s: %v", name, err)
					return
				}
			}
		}(fmt.Sprintf("churn-%d", i))
	}
	// Producers on churned names, until stopped.
	for i := 0; i < churned; i++ {
		rest.Add(1)
		go func(name string) {
			defer rest.Done()
			batch := make([]Event, 3)
			for j := 0; !stopped(); j++ {
				var err error
				if j%2 == 0 {
					err = h.Submit(name, Event{Value: float64(j)})
				} else {
					_, err = h.SubmitBatch(name, batch)
				}
				if err != nil && !refusedOK(err) {
					t.Errorf("submit %s: %v", name, err)
					return
				}
			}
		}(fmt.Sprintf("churn-%d", i))
	}
	// Readers, until stopped.
	for i := 0; i < 2; i++ {
		rest.Add(1)
		go func() {
			defer rest.Done()
			for !stopped() {
				s := h.Stats()
				if len(s.Tenants) < stable || len(s.Tenants) > stable+churned {
					t.Errorf("Stats lists %d tenants, want %d to %d", len(s.Tenants), stable, stable+churned)
					return
				}
				if _, err := h.TenantStats("stable-0"); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.TenantStats("churn-0"); err != nil && !errors.Is(err, ErrUnknownTenant) {
					t.Errorf("TenantStats(churn-0): %v", err)
					return
				}
			}
		}()
	}
	// Producers on stable names: every event admitted, alternating Submit
	// and SubmitBatch.
	for i := 0; i < stable; i++ {
		stableWG.Add(1)
		go func(name string) {
			defer stableWG.Done()
			for j := 0; j < events; j += 2 {
				if err := h.Submit(name, Event{Value: float64(j)}); err != nil {
					t.Errorf("submit %s: %v", name, err)
					return
				}
				if n, err := h.SubmitBatch(name, []Event{{Value: float64(j + 1)}}); n != 1 || err != nil {
					t.Errorf("submit batch %s: %d, %v", name, n, err)
					return
				}
			}
		}(fmt.Sprintf("stable-%d", i))
	}
	stableWG.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rest.Wait()

	for i, p := range stableProcs {
		seen := p.seen()
		if len(seen) != events {
			t.Fatalf("stable-%d processed %d events, want %d", i, len(seen), events)
		}
		for j, v := range seen {
			if v != float64(j) {
				t.Fatalf("stable-%d event %d has value %v, want %d", i, j, v, j)
			}
		}
	}
	for _, ts := range h.Stats().Tenants {
		if ts.QueueDepth != 0 || ts.Processed != ts.Ingested {
			t.Errorf("%s after close: depth %d, processed %d of %d ingested", ts.Tenant, ts.QueueDepth, ts.Processed, ts.Ingested)
		}
	}
	if err := h.Register("late", &recorder{}, TenantConfig{}); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close = %v, want ErrClosed", err)
	}
	if err := h.Submit("stable-0", Event{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}
