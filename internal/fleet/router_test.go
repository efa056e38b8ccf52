package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/hub"
)

// sink records per-shard submissions, standing in for real hub shards.
type sink struct {
	mu     sync.Mutex
	events map[int][]hub.Event
}

func newSink() *sink { return &sink{events: make(map[int][]hub.Event)} }

func (s *sink) submit(shard int, evs []hub.Event) (int, error) {
	s.mu.Lock()
	s.events[shard] = append(s.events[shard], evs...)
	s.mu.Unlock()
	return len(evs), nil
}

// dispatch routes one event as a batch of one.
func dispatch(r *Router, tenant string, e hub.Event) error {
	_, err := r.DispatchBatch(tenant, []hub.Event{e})
	return err
}

func (s *sink) count(shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events[shard])
}

func ev(i int) hub.Event {
	return hub.Event{Device: "d", Value: float64(i), Time: time.Unix(int64(i), 0)}
}

func TestRouterDispatchRoutes(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 1, hub.Block, 8, s.submit); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(r, "a", ev(1)); err != nil {
		t.Fatal(err)
	}
	if s.count(1) != 1 || s.count(0) != 0 {
		t.Fatalf("event landed on wrong shard: %v", s.events)
	}
	if err := dispatch(r, "nobody", ev(1)); !errors.Is(err, hub.ErrUnknownTenant) {
		t.Fatalf("unrouted dispatch error = %v", err)
	}
	if err := r.Activate("a", 0, hub.Block, 8, s.submit); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("duplicate activate error = %v", err)
	}
}

func TestRouterMigrateReplaysGap(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 0, hub.Block, 64, s.submit); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := r.Migrate("a", 1, func(from int) error {
			if from != 0 {
				return fmt.Errorf("handoff from shard %d, want 0", from)
			}
			close(entered)
			<-release
			return nil
		})
		done <- err
	}()

	<-entered
	// Mid-migration submissions buffer in the gap, not on any shard.
	for i := 0; i < 5; i++ {
		if err := dispatch(r, "a", ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.count(0)+s.count(1) != 0 {
		t.Fatalf("mid-migration dispatch reached a shard: %v", s.events)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The gap replayed onto the target, in order.
	if s.count(1) != 5 {
		t.Fatalf("replayed %d events to target, want 5", s.count(1))
	}
	for i, got := range s.events[1] {
		if got.Value != float64(i) {
			t.Fatalf("replay out of order at %d: %+v", i, got)
		}
	}
	if shard, _ := r.Route("a"); shard != 1 {
		t.Fatalf("route after migration = %d, want 1", shard)
	}
	migs, replayed, dropped := r.Counters()
	if migs != 1 || replayed != 5 || dropped != 0 {
		t.Fatalf("counters = %d/%d/%d", migs, replayed, dropped)
	}
}

func TestRouterMigrateAbortRollsBack(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 0, hub.Block, 64, s.submit); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("handoff exploded")

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := r.Migrate("a", 1, func(int) error {
			close(entered)
			<-release
			return boom
		})
		done <- err
	}()
	<-entered
	for i := 0; i < 3; i++ {
		if err := dispatch(r, "a", ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("aborted migration error = %v", err)
	}
	// The gap replayed back onto the source and the route is unchanged.
	if s.count(0) != 3 || s.count(1) != 0 {
		t.Fatalf("rollback replay landed wrong: %v", s.events)
	}
	if shard, _ := r.Route("a"); shard != 0 {
		t.Fatalf("route after abort = %d, want 0", shard)
	}
	if migs, _, _ := r.Counters(); migs != 0 {
		t.Fatalf("aborted migration counted: %d", migs)
	}
}

func TestRouterGapPolicies(t *testing.T) {
	start := func(policy hub.Policy, cap int) (*Router, chan struct{}, chan error, *sink) {
		r := NewRouter(0)
		r.AddShard(0)
		r.AddShard(1)
		s := newSink()
		if err := r.Activate("a", 0, policy, cap, s.submit); err != nil {
			t.Fatal(err)
		}
		entered := make(chan struct{})
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := r.Migrate("a", 1, func(int) error {
				close(entered)
				<-release
				return nil
			})
			done <- err
		}()
		<-entered
		return r, release, done, s
	}

	t.Run("reject", func(t *testing.T) {
		r, release, done, s := start(hub.Reject, 2)
		for i := 0; i < 2; i++ {
			if err := dispatch(r, "a", ev(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dispatch(r, "a", ev(2)); !errors.Is(err, hub.ErrBackpressure) {
			t.Fatalf("full reject gap error = %v", err)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if s.count(1) != 2 {
			t.Fatalf("target got %d events, want 2", s.count(1))
		}
	})

	t.Run("drop-oldest", func(t *testing.T) {
		r, release, done, s := start(hub.DropOldest, 2)
		for i := 0; i < 4; i++ {
			if err := dispatch(r, "a", ev(i)); err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// Events 0 and 1 were evicted; 2 and 3 replayed.
		if s.count(1) != 2 || s.events[1][0].Value != 2 || s.events[1][1].Value != 3 {
			t.Fatalf("drop-oldest gap replayed %v", s.events[1])
		}
		if _, _, dropped := r.Counters(); dropped != 2 {
			t.Fatalf("gapDropped = %d, want 2", dropped)
		}
	})

	t.Run("block", func(t *testing.T) {
		r, release, done, s := start(hub.Block, 2)
		for i := 0; i < 2; i++ {
			if err := dispatch(r, "a", ev(i)); err != nil {
				t.Fatal(err)
			}
		}
		unblocked := make(chan error, 1)
		go func() { unblocked <- dispatch(r, "a", ev(2)) }()
		select {
		case err := <-unblocked:
			t.Fatalf("block-policy dispatch returned early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := <-unblocked; err != nil {
			t.Fatal(err)
		}
		// Gap replayed 0,1 to the target; the parked producer submitted 2
		// directly after the flip.
		if s.count(1) != 3 {
			t.Fatalf("target got %d events, want 3", s.count(1))
		}
	})
}

func TestRouterControlExcludesMigration(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	if err := r.Activate("a", 0, hub.Block, 8, func(_ int, evs []hub.Event) (int, error) { return len(evs), nil }); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := r.Migrate("a", 1, func(int) error {
			close(entered)
			<-release
			return nil
		})
		done <- err
	}()
	<-entered
	ctl := make(chan int, 1)
	go func() {
		_ = r.Control("a", func(shard int) error {
			ctl <- shard
			return nil
		})
	}()
	select {
	case s := <-ctl:
		t.Fatalf("control ran mid-migration on shard %d", s)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Control runs only after the flip, and sees the target shard.
	if s := <-ctl; s != 1 {
		t.Fatalf("control saw shard %d, want 1", s)
	}
	// A second migration to the same shard is a no-op, not an error.
	if _, err := r.Migrate("a", 1, func(int) error {
		t.Fatal("handoff ran for a same-shard migration")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterRemoveWaitsOutMigration(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	if err := r.Activate("a", 0, hub.Block, 8, func(_ int, evs []hub.Event) (int, error) { return len(evs), nil }); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = r.Migrate("a", 1, func(int) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	removed := make(chan int, 1)
	go func() {
		shard, _ := r.Remove("a")
		removed <- shard
	}()
	select {
	case <-removed:
		t.Fatal("remove completed mid-migration")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if shard := <-removed; shard != 1 {
		t.Fatalf("remove returned shard %d, want post-migration 1", shard)
	}
	if _, ok := r.Route("a"); ok {
		t.Fatal("tenant still routed after remove")
	}
	if _, ok := r.Remove("a"); ok {
		t.Fatal("second remove found the tenant")
	}
}

// TestRouterConcurrentDispatchMigrate hammers one tenant with producers
// while it migrates back and forth; under -race this doubles as the data
// race check, and the event count proves nothing was lost or duplicated.
func TestRouterConcurrentDispatchMigrate(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 0, hub.Block, 4096, s.submit); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := dispatch(r, "a", ev(p*perProducer+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for flip := 0; flip < 6; flip++ {
		if _, err := r.Migrate("a", (flip+1)%2, func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if total := s.count(0) + s.count(1); total != producers*perProducer {
		t.Fatalf("delivered %d events, want %d", total, producers*perProducer)
	}
}

// TestRouterConcurrentDispatchMigrateDropOldest races producers against
// repeated migrations with a gap buffer small enough to overflow: every
// dispatched event must either reach a shard or be counted as an eviction —
// DropOldest never loses anything silently.
func TestRouterConcurrentDispatchMigrateDropOldest(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 0, hub.DropOldest, 16, s.submit); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := dispatch(r, "a", ev(p*perProducer+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for flip := 0; flip < 6; flip++ {
		if _, err := r.Migrate("a", (flip+1)%2, func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	delivered := s.count(0) + s.count(1)
	_, _, dropped := r.Counters()
	if total := delivered + int(dropped); total != producers*perProducer {
		t.Fatalf("delivered %d + evicted %d = %d, want %d", delivered, dropped, total, producers*perProducer)
	}
}

// TestRouterConcurrentDispatchMigrateReject is the same race under Reject:
// overflow comes back to the producer as hub.ErrBackpressure (wrapped, so
// errors.Is matches), and delivered + rejected covers every dispatch.
func TestRouterConcurrentDispatchMigrateReject(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	s := newSink()
	if err := r.Activate("a", 0, hub.Reject, 16, s.submit); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 500
	var rej atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				err := dispatch(r, "a", ev(p*perProducer+i))
				if errors.Is(err, hub.ErrBackpressure) {
					rej.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("non-backpressure dispatch error: %v", err)
					return
				}
			}
		}(p)
	}
	for flip := 0; flip < 6; flip++ {
		if _, err := r.Migrate("a", (flip+1)%2, func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	delivered := s.count(0) + s.count(1)
	if total := delivered + int(rej.Load()); total != producers*perProducer {
		t.Fatalf("delivered %d + rejected %d = %d, want %d", delivered, rej.Load(), total, producers*perProducer)
	}
}

// TestRouterMigrateOrderPreserved streams a single ordered producer through
// repeated live migrations: because a dispatch holds the route entry across
// the shard enqueue and the gap replays under the same lock before the flip
// is visible, arrival order across source, gap replay, and target must be
// exactly dispatch order — the replay boundary never reorders. The
// dispatcher waits halfway until the first migration's handoff has begun,
// so at least one migration races the stream however the goroutines are
// scheduled.
func TestRouterMigrateOrderPreserved(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	var mu sync.Mutex
	var arrivals []float64
	submit := func(shard int, evs []hub.Event) (int, error) {
		mu.Lock()
		for _, e := range evs {
			arrivals = append(arrivals, e.Value)
		}
		mu.Unlock()
		return len(evs), nil
	}
	if err := r.Activate("a", 0, hub.Block, 4096, submit); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	done := make(chan struct{})
	handoff := make(chan struct{}) // closed once the first migration's handoff runs
	var handoffOnce sync.Once
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if i == total/2 {
				<-handoff
			}
			if err := dispatch(r, "a", ev(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	flips := 0
	for {
		select {
		case <-done:
		default:
			if _, err := r.Migrate("a", (flips+1)%2, func(int) error {
				handoffOnce.Do(func() { close(handoff) })
				time.Sleep(time.Millisecond)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			flips++
			continue
		}
		break
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != total {
		t.Fatalf("arrived %d events, want %d", len(arrivals), total)
	}
	for i, v := range arrivals {
		if v != float64(i) {
			t.Fatalf("arrival %d has value %g: replay boundary reordered the stream", i, v)
		}
	}
	if flips == 0 {
		t.Fatal("no migration raced the stream")
	}
}

// TestRouterDispatchBatch pins the batch path: a serving route hands the
// whole batch to its sink in one call, and a migrating route gap-buffers
// each event on its own, refusing (under Reject) the first that overflows
// the gap and attempting none after it. A refusal in the gap replay skips
// only the refused event.
func TestRouterDispatchBatch(t *testing.T) {
	r := NewRouter(0)
	r.AddShard(0)
	r.AddShard(1)
	var calls []int
	refuse := -1.0 // Value of the event the sink refuses
	submit := func(shard int, evs []hub.Event) (int, error) {
		calls = append(calls, len(evs))
		for i, e := range evs {
			if e.Value == refuse {
				return i, hub.ErrBackpressure
			}
		}
		return len(evs), nil
	}
	if err := r.Activate("a", 0, hub.Reject, 4, submit); err != nil {
		t.Fatal(err)
	}
	batch := []hub.Event{ev(0), ev(1), ev(2), ev(3), ev(4), ev(5)}
	if n, err := r.DispatchBatch("a", batch); n != 6 || err != nil {
		t.Fatalf("serving DispatchBatch = %d, %v", n, err)
	}
	if fmt.Sprint(calls) != "[6]" {
		t.Fatalf("sink calls %v, want one call with the whole batch", calls)
	}
	calls = nil
	refuse = 1
	replayed, err := r.Migrate("a", 1, func(int) error {
		n, err := r.DispatchBatch("a", batch)
		if n != 4 || !errors.Is(err, hub.ErrBackpressure) {
			t.Errorf("migrating DispatchBatch = %d, %v; want 4, ErrBackpressure", n, err)
		}
		return nil
	})
	if replayed != 4 || !errors.Is(err, hub.ErrBackpressure) {
		t.Fatalf("Migrate = %d, %v; want 4 replayed and the refusal surfaced", replayed, err)
	}
	// The gap [0 1 2 3] replays as one call, refused at 1, then [2 3].
	if fmt.Sprint(calls) != "[4 2]" {
		t.Fatalf("replay sink calls %v, want [4 2]", calls)
	}
}
