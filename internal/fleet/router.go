package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/causaliot/causaliot/internal/hub"
)

// Router errors. Routing reuses the hub sentinels where the condition is
// the same one a hub reports (unknown tenant, backpressure), so callers
// match one sentinel regardless of whether a hub queue or a migration gap
// buffer refused the event.
var (
	// ErrMigrating reports an operation refused because the tenant already
	// has a migration in flight.
	ErrMigrating = errors.New("fleet: tenant migration in flight")
	// ErrUnknownShard reports an operation addressing a shard id not in the
	// fleet.
	ErrUnknownShard = errors.New("fleet: unknown shard")
	// ErrLastShard reports a RemoveShard that would leave the fleet with no
	// shards.
	ErrLastShard = errors.New("fleet: cannot remove the last shard")
	// ErrDuplicateTenant reports an Activate for a tenant already routed.
	ErrDuplicateTenant = errors.New("fleet: tenant already routed")
)

// entry is one tenant's route: the shard currently serving it, and — while
// a migration is in flight — the gap buffer catching submissions between
// the quiesce of the source shard and the route flip to the target.
type entry struct {
	mu   sync.Mutex
	cond *sync.Cond

	shard     int
	migrating bool
	gap       []hub.Event
	gapCap    int
	policy    hub.Policy
	// submit is the tenant's shard enqueue sink, fixed at Activate. Storing
	// it on the entry (instead of taking a closure per DispatchBatch call)
	// keeps the event path allocation-free. It admits evs in order and
	// reports, like hub.Hub.SubmitBatch, how many were admitted before the
	// first refusal.
	submit Sink
}

// Sink enqueues a batch of one tenant's events on a shard: it returns how
// many were admitted and, when that is fewer than len(evs), the error
// refusing evs[admitted]. The events after it are not attempted.
type Sink func(shard int, evs []hub.Event) (admitted int, err error)

// Router is the tenant→shard route table with live-migration support. All
// methods are safe for concurrent use. One tenant's operations serialize on
// its route entry: an event batch holds the entry across the shard
// enqueue, so a migration observes a clean cut — every event is either
// enqueued on the source before the quiesce, buffered in the gap, or
// submitted to the target after the flip. Nothing is lost and nothing runs
// twice.
type Router struct {
	ring *Ring

	mu      sync.RWMutex
	entries map[string]*entry

	migrations atomic.Uint64 // completed migrations (route flips)
	replayed   atomic.Uint64 // gap events replayed through migrations
	gapDropped atomic.Uint64 // gap events evicted under DropOldest
}

// NewRouter creates a router over an empty ring; replicas <= 0 selects
// DefaultReplicas virtual nodes per shard.
func NewRouter(replicas int) *Router {
	return &Router{ring: NewRing(replicas), entries: make(map[string]*entry)}
}

// AddShard places a shard on the ring, making it eligible to own tenants.
func (r *Router) AddShard(id int) { r.ring.Add(id) }

// RemoveShard takes a shard off the ring. Tenants still routed to it keep
// being served there until migrated; Owner never returns it again.
func (r *Router) RemoveShard(id int) { r.ring.Remove(id) }

// Shards returns the shard ids on the ring, sorted.
func (r *Router) Shards() []int { return r.ring.Shards() }

// Owner returns the ring-assigned shard for a tenant key; ok is false when
// the ring has no shards.
func (r *Router) Owner(tenant string) (int, bool) { return r.ring.Owner(tenant) }

// Activate routes a tenant to a shard. The caller registers the tenant on
// the shard's hub first, then activates the route, so a dispatched event
// never reaches a hub that does not yet host the tenant. submit is the
// tenant's enqueue sink: DispatchBatch and migration gap replay deliver
// events through it to whichever shard currently serves the tenant.
func (r *Router) Activate(tenant string, shard int, policy hub.Policy, gapCap int, submit Sink) error {
	if gapCap <= 0 {
		gapCap = 1024
	}
	if submit == nil {
		return fmt.Errorf("fleet: activate %q with nil submit sink", tenant)
	}
	e := &entry{shard: shard, policy: policy, gapCap: gapCap, submit: submit}
	e.cond = sync.NewCond(&e.mu)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[tenant]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, tenant)
	}
	r.entries[tenant] = e
	return nil
}

// Remove drops a tenant's route, first waiting out any migration in flight
// so the handoff never races a concurrent deregistration. It returns the
// shard that was serving the tenant so the caller can complete the hub-level
// removal there; ok is false for an unrouted tenant.
func (r *Router) Remove(tenant string) (shard int, ok bool) {
	r.mu.Lock()
	e := r.entries[tenant]
	r.mu.Unlock()
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	for e.migrating {
		e.cond.Wait()
	}
	shard = e.shard
	e.mu.Unlock()
	r.mu.Lock()
	delete(r.entries, tenant)
	r.mu.Unlock()
	return shard, true
}

// Route returns the shard currently serving a tenant; ok is false for an
// unrouted tenant. The answer is advisory — a migration may flip it the
// moment the lock is released; use DispatchBatch/Control for serialized
// access.
func (r *Router) Route(tenant string) (shard int, ok bool) {
	r.mu.RLock()
	e := r.entries[tenant]
	r.mu.RUnlock()
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shard, true
}

// Tenants returns every routed tenant, sorted.
func (r *Router) Tenants() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// TenantsOn returns the tenants currently routed to a shard, sorted.
func (r *Router) TenantsOn(shard int) []string {
	r.mu.RLock()
	var out []string
	for name, e := range r.entries {
		e.mu.Lock()
		s := e.shard
		e.mu.Unlock()
		if s == shard {
			out = append(out, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// lookup fetches a tenant's route entry.
func (r *Router) lookup(tenant string) (*entry, error) {
	r.mu.RLock()
	e := r.entries[tenant]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w %q", hub.ErrUnknownTenant, tenant)
	}
	return e, nil
}

// DispatchBatch routes a batch of one tenant's events with one route lookup
// and one hold of the route: when the tenant is serving, its Activate-time
// submit sink is called once with the owning shard while the route is
// held, so a migration cannot flip it mid-enqueue. During a migration each
// event lands in the gap buffer on its own; a full gap applies the tenant's
// backpressure policy (Block waits for the migration to finish and sends
// the rest to the new shard, DropOldest evicts the oldest buffered event,
// Reject fails with hub.ErrBackpressure). It returns how many events were
// admitted and, when that is fewer than len(evs), the error refusing
// evs[admitted].
func (r *Router) DispatchBatch(tenant string, evs []hub.Event) (admitted int, err error) {
	e, err := r.lookup(tenant)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.migrating {
		if admitted == len(evs) {
			return admitted, nil
		}
		ev := evs[admitted]
		if len(e.gap) < e.gapCap {
			e.gap = append(e.gap, ev)
			admitted++
			continue
		}
		switch e.policy {
		case hub.DropOldest:
			copy(e.gap, e.gap[1:])
			e.gap[len(e.gap)-1] = ev
			r.gapDropped.Add(1)
			admitted++
		case hub.Reject:
			return admitted, fmt.Errorf("%w: %q (migration gap)", hub.ErrBackpressure, tenant)
		default: // Block: wait for the migration to finish, then re-route
			e.cond.Wait()
		}
	}
	if admitted == len(evs) {
		return admitted, nil
	}
	n, err := e.submit(e.shard, evs[admitted:])
	return admitted + n, err
}

// Control runs fn against the tenant's serving shard with migration
// excluded: a migration in flight completes first (Control waits), and no
// migration can begin — and no event can be dispatched — until fn returns.
// This is how stream-pausing operations (swap, export, flush) stay
// serialized with the handoff.
func (r *Router) Control(tenant string, fn func(shard int) error) error {
	e, err := r.lookup(tenant)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.migrating {
		e.cond.Wait()
	}
	return fn(e.shard)
}

// Migrate moves a tenant to shard `to` with zero event loss. The sequence:
//
//  1. The route is marked migrating — subsequent Dispatches buffer into the
//     gap, so no new event reaches the source shard.
//  2. handoff(from) runs the caller's envelope piping: quiesce the source,
//     export the checkpoint, restore and register on the target. The router
//     guarantees exclusive ownership of the tenant for its duration.
//  3. The gap buffer is replayed through the tenant's submit sink onto the
//     target and the route flips atomically — Block-parked producers wake
//     and submit to the new shard.
//
// A handoff error aborts the migration: the gap replays back onto the
// source shard (which still hosts the tenant — handoff implementations must
// not deregister the source until nothing can fail) and the route is
// restored. Migrate returns the number of gap events replayed.
func (r *Router) Migrate(tenant string, to int, handoff func(from int) error) (int, error) {
	e, err := r.lookup(tenant)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	if e.migrating {
		e.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrMigrating, tenant)
	}
	from := e.shard
	if from == to {
		e.mu.Unlock()
		return 0, nil
	}
	e.migrating = true
	e.mu.Unlock()

	herr := handoff(from)

	e.mu.Lock()
	defer func() {
		e.gap = nil
		e.migrating = false
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	target := to
	if herr != nil {
		target = from // abort: resume serving on the source
	}
	var rerr error
	for rest := e.gap; len(rest) > 0; {
		// Replay every buffered event even past a refusal, so only the
		// refused events are affected, and surface the first error.
		n, err := e.submit(target, rest)
		if err == nil {
			break
		}
		if rerr == nil {
			rerr = err
		}
		rest = rest[min(n, len(rest)-1)+1:]
	}
	replayed := len(e.gap)
	r.replayed.Add(uint64(replayed))
	e.shard = target
	if herr != nil {
		return replayed, herr
	}
	r.migrations.Add(1)
	return replayed, rerr
}

// Counters returns the router's lifetime migration counters: completed
// migrations, gap events replayed, and gap events evicted under DropOldest.
func (r *Router) Counters() (migrations, replayed, gapDropped uint64) {
	return r.migrations.Load(), r.replayed.Load(), r.gapDropped.Load()
}
