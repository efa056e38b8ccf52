// Package hub implements the concurrent multi-home serving layer: many
// independent tenants (homes), each owning a stream processor fed through a
// bounded ingestion queue, drained by a shared worker pool that keeps one
// tenant's events strictly ordered while different tenants run in parallel.
//
// Each tenant queue has an explicit backpressure policy — Block, DropOldest,
// or Reject — and the hub keeps per-tenant and global runtime counters
// (ingested, processed, alarms, drops, rejects, errors, queue depth,
// p50/p99 service time) exposed through Stats. Service times are sampled:
// the hub times the Handle call of one event in latSampleEvery (64) that a
// tenant serves, the tenant's first event included, so the event path reads
// no clock for the other 63. Update pauses a tenant's stream between events
// to hot-swap its processor (or mutate it in place, e.g. swapping a
// retrained model into a monitor) without losing queued or in-flight
// events.
//
// The tenant table is copy-on-write: Submit and Stats load it from an
// atomic pointer and take no hub-wide lock; Register and Deregister
// serialize on the hub's mutex and publish a changed copy.
package hub

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/event"
)

// Event is one raw device state report addressed to a tenant's stream. Seq
// is an opaque producer-assigned sequence number carried alongside the
// event; the hub never interprets it.
type Event = event.Report

// Processor handles one tenant's ordered event stream. The hub never calls
// Handle concurrently for the same tenant, so implementations need no
// internal locking against the hub.
type Processor interface {
	// Handle processes one event; alarmed reports whether it raised an
	// alarm (counted in the tenant's stats). A returned error is counted
	// and reported to the tenant's error callback but does not stop the
	// stream — per-event errors (unknown device, glitched reading) are
	// stream noise at fleet scale, not a reason to stall a home.
	Handle(ev Event) (alarmed bool, err error)
}

// Policy selects what Submit does when a tenant's queue is full.
type Policy int

const (
	// DefaultPolicy inherits the hub-level policy (Block unless the hub
	// was configured otherwise).
	DefaultPolicy Policy = iota
	// Block makes Submit wait until queue space frees — lossless, but a
	// slow home stalls its producers.
	Block
	// DropOldest evicts the oldest queued event to admit the new one —
	// bounded staleness, lossy under sustained overload.
	DropOldest
	// Reject fails Submit with ErrBackpressure — the producer decides,
	// nothing silently lost or stalled.
	Reject
)

func (p Policy) String() string {
	switch p {
	case DefaultPolicy:
		return "default"
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Or returns p when it names a policy — Block, DropOldest or Reject — and
// def otherwise: DefaultPolicy and any value outside the enum (a policy
// byte off the wire, say) inherit def.
func (p Policy) Or(def Policy) Policy {
	if p < Block || p > Reject {
		return def
	}
	return p
}

// ParsePolicy is the inverse of String for the named policies: "block",
// "drop-oldest" or "reject".
func ParsePolicy(name string) (Policy, error) {
	for p := Block; p <= Reject; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return DefaultPolicy, fmt.Errorf("unknown backpressure policy %q", name)
}

// Hub errors.
var (
	// ErrBackpressure reports a Reject-policy queue at capacity.
	ErrBackpressure = errors.New("hub: tenant queue full")
	// ErrUnknownTenant reports an operation on an unregistered tenant.
	ErrUnknownTenant = errors.New("hub: unknown tenant")
	// ErrDuplicateTenant reports a Register for a name already hosted.
	ErrDuplicateTenant = errors.New("hub: tenant already registered")
	// ErrClosed reports an operation on a closed hub (or a tenant being
	// deregistered).
	ErrClosed = errors.New("hub: closed")
	// ErrPanic wraps a panic recovered from a tenant's processor; the
	// panicking event is counted as a failure and the stream continues.
	ErrPanic = errors.New("hub: processor panicked")
	// ErrQuarantined reports a Submit refused by a tenant's tripped
	// circuit breaker.
	ErrQuarantined = errors.New("hub: tenant quarantined")
	// ErrDrainTimeout reports a CloseWithin drain that exceeded its
	// deadline (typically a wedged processor); the hub stops intake but
	// queued events of the wedged tenant may be lost.
	ErrDrainTimeout = errors.New("hub: drain deadline exceeded")
)

// Health is a tenant's circuit-breaker state.
type Health int

const (
	// Healthy is the normal serving state.
	Healthy Health = iota
	// Quarantined marks a tripped circuit breaker: submissions are
	// refused until the readmission backoff elapses.
	Quarantined
	// Probing marks a quarantined tenant whose backoff elapsed and whose
	// next event has been admitted as a readmission probe; further
	// submissions stay refused until the probe's outcome is known.
	Probing
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Config tunes the hub. The zero value selects the defaults.
type Config struct {
	// Workers sizes the worker pool. Defaults to GOMAXPROCS.
	Workers int
	// QueueSize is the default per-tenant queue capacity. Defaults to
	// 1024.
	QueueSize int
	// Policy is the default backpressure policy. Defaults to Block.
	Policy Policy
	// BatchSize caps how many events one scheduling turn drains from a
	// tenant before yielding the worker, bounding the latency a busy
	// tenant can inflict on its neighbours. Defaults to 64.
	BatchSize int
	// LatencySamples is how many of a tenant's most recent service-time
	// samples its p50/p99 stats cover. A sample is the Handle call of one
	// served event in latSampleEvery (64), so the default 512 samples span
	// about 32K events. Each sample is kept as a log-linear bucket (16 per
	// power of two, so a bucket spans at most 1/16 of its lower bound;
	// clamped at about 68.7 s) and a percentile reports its bucket's
	// midpoint. Defaults to 512.
	LatencySamples int
	// QuarantineAfter is the consecutive-failure count (per-event errors
	// and recovered panics) that trips a tenant's circuit breaker: the
	// tenant's queue is flushed and submissions are refused with
	// ErrQuarantined until the readmission backoff elapses. Defaults to
	// 8; negative disables quarantine entirely.
	QuarantineAfter int
	// QuarantineBackoff is the initial readmission backoff; each failed
	// readmission probe doubles it. Defaults to 1s.
	QuarantineBackoff time.Duration
	// QuarantineMaxBackoff caps the exponential backoff. Defaults to 60s.
	QuarantineMaxBackoff time.Duration
	// Clock overrides the hub's time source for quarantine backoff
	// scheduling and sampled service times; nil selects time.Now.
	// Deterministic chaos tests inject a fake clock.
	Clock func() time.Time
	// GroupBatch caps how many same-model tenants one scheduling turn
	// drains back-to-back on a single worker. Tenants whose processors
	// report the same non-zero model key (see ModelKeyed) are pulled out of
	// the run queue together so their batches stream the same shared score
	// tables while they are cache-hot, instead of interleaving different
	// models across workers. Grouping changes only which worker drains a
	// tenant and when — each tenant's batch still runs exactly as ungrouped
	// (same order, same backpressure), so results are bit-identical.
	// Defaults to 8; negative disables grouping.
	GroupBatch int
}

// ModelKeyed is implemented by processors that can name the model they
// score against: Handle results depend only on the tenant's own stream and
// state for any two processors with the same non-zero key, which makes it
// safe (and profitable) to drain their tenants consecutively on one worker.
// A zero key means "unknown model" and is never grouped.
type ModelKeyed interface {
	ModelKey() uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	c.Policy = c.Policy.Or(Block)
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LatencySamples <= 0 {
		c.LatencySamples = 512
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 8
	} else if c.QuarantineAfter < 0 {
		c.QuarantineAfter = 0 // disabled
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = time.Second
	}
	if c.QuarantineMaxBackoff <= 0 {
		c.QuarantineMaxBackoff = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.GroupBatch == 0 {
		c.GroupBatch = 8
	} else if c.GroupBatch < 0 {
		c.GroupBatch = 1 // disabled: every turn drains exactly one tenant
	}
	return c
}

// TenantConfig tunes one tenant; zero values inherit the hub defaults.
type TenantConfig struct {
	// QueueSize overrides the hub's per-tenant queue capacity.
	QueueSize int
	// Policy overrides the hub's backpressure policy.
	Policy Policy
	// OnError receives per-event processing errors. It is called from a
	// worker goroutine, serialized with the tenant's stream.
	OnError func(ev Event, err error)
}

// tenant is one hosted home: its queue, its processor, and its counters.
type tenant struct {
	name string
	hub  *Hub

	// mu guards the queue ring and the scheduling flag.
	mu        sync.Mutex
	notFull   *sync.Cond
	buf       []Event
	head, n   int
	policy    Policy
	scheduled bool
	closed    bool

	// drain is the reusable batch-drain scratch (BatchSize cap), written
	// and read only under procMu, so workers never allocate per batch.
	drain []Event

	// Circuit-breaker state, guarded by mu: health transitions, the
	// consecutive-failure counter, the readmission schedule, and the last
	// failure observed.
	health          Health
	consecFails     int
	backoff         time.Duration
	quarantineUntil time.Time
	lastErr         string

	// procMu serializes event processing and control operations (Update);
	// lock order is procMu before mu.
	procMu  sync.Mutex
	proc    Processor
	onError func(Event, error)
	// breakerClean, guarded by procMu, is set after a success that left
	// the breaker Healthy with no failure streak. Only noteOutcome, also
	// under procMu, moves health off Healthy or raises consecFails, and it
	// clears the flag first, so while the flag is set a success changes no
	// breaker state and noteOutcome skips t.mu.
	breakerClean bool
	// served, guarded by procMu, counts the events handed to the
	// processor; runBatch times the events latSampled picks from it.
	served uint64

	// modelKey caches the processor's ModelKey for the scheduler's grouping
	// scan. Written at Register and after every successful Update (both
	// stream-paused points); read lock-free by workers — a stale read can
	// only degrade grouping quality, never correctness, because grouping
	// does not change how a tenant's batch is processed.
	modelKey atomic.Uint64

	// The producers' counters, written under the Submit path, and the
	// workers' below them, a cache line apart: a worker closing a batch
	// does not invalidate the line every Submit writes.
	ingested atomic.Uint64
	dropped  atomic.Uint64
	rejected atomic.Uint64
	_        [64]byte

	// processed, alarms and errs are added once per batch by runBatch.
	processed atomic.Uint64
	alarms    atomic.Uint64
	errs      atomic.Uint64
	panics    atomic.Uint64
	shed      atomic.Uint64 // events refused or discarded by quarantine
	updates   atomic.Uint64 // successful Update calls (model swaps et al.)
	lat       *latencyWindow
}

// Hub hosts many tenants over a shared worker pool.
type Hub struct {
	cfg Config

	// tenants is the copy-on-write tenant table: readers load the current
	// map and never write it; Register and Deregister, serialized by mu,
	// publish a changed copy.
	mu      sync.Mutex
	tenants atomic.Pointer[map[string]*tenant]

	// Unbounded FIFO run queue of tenants with pending work. A tenant
	// appears at most once (the scheduled flag), so the queue length is
	// bounded by the tenant count.
	qmu      sync.Mutex
	qcond    *sync.Cond
	runq     runQueue
	stopping bool

	// grouped counts tenants drained as same-model group followers (the
	// group leader's turn is not counted).
	grouped atomic.Uint64

	wg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a hub and its worker pool.
func New(cfg Config) *Hub {
	h := newHub(cfg)
	h.wg.Add(h.cfg.Workers)
	for i := 0; i < h.cfg.Workers; i++ {
		go h.worker()
	}
	return h
}

// newHub builds a hub with an empty tenant table and no worker goroutines;
// New starts the workers, and tests drive the scheduler through drainTurn.
func newHub(cfg Config) *Hub {
	h := &Hub{cfg: cfg.withDefaults()}
	h.tenants.Store(&map[string]*tenant{})
	h.qcond = sync.NewCond(&h.qmu)
	return h
}

// table returns the current tenant table; callers must not modify it.
func (h *Hub) table() map[string]*tenant { return *h.tenants.Load() }

// Workers returns the worker pool size.
func (h *Hub) Workers() int { return h.cfg.Workers }

// Register hosts a new tenant. The processor's Handle is only ever called
// from one worker at a time; events submitted for the tenant are processed
// in submission order.
func (h *Hub) Register(name string, p Processor, cfg TenantConfig) error {
	if name == "" {
		return errors.New("hub: empty tenant name")
	}
	if p == nil {
		return errors.New("hub: nil processor")
	}
	size := cfg.QueueSize
	if size <= 0 {
		size = h.cfg.QueueSize
	}
	policy := cfg.Policy.Or(h.cfg.Policy)
	t := &tenant{
		name:    name,
		hub:     h,
		buf:     make([]Event, size),
		drain:   make([]Event, h.cfg.BatchSize),
		policy:  policy,
		proc:    p,
		onError: cfg.OnError,
		lat:     newLatencyWindow(h.cfg.LatencySamples),
	}
	t.notFull = sync.NewCond(&t.mu)
	if mk, ok := p.(ModelKeyed); ok {
		t.modelKey.Store(mk.ModelKey())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// The closed check must run under h.mu: Close takes h.mu after
	// flipping the flag before it loads the table it sweeps, so a tenant
	// registered here either observes the closed hub or is published before
	// the sweep's load — never after it, silently stranded.
	if h.closed.Load() {
		return ErrClosed
	}
	old := h.table()
	if _, dup := old[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, name)
	}
	next := maps.Clone(old)
	next[name] = t
	h.tenants.Store(&next)
	return nil
}

// Deregister removes a tenant, discarding its queued events and releasing
// any producers blocked on its queue.
func (h *Hub) Deregister(name string) error {
	h.mu.Lock()
	old := h.table()
	t := old[name]
	if t != nil {
		next := maps.Clone(old)
		delete(next, name)
		h.tenants.Store(&next)
	}
	h.mu.Unlock()
	if t == nil {
		return fmt.Errorf("%w %q", ErrUnknownTenant, name)
	}
	t.mu.Lock()
	t.closed = true
	t.head, t.n = 0, 0
	t.notFull.Broadcast()
	t.mu.Unlock()
	return nil
}

// lookup fetches a live tenant by name from the current table, lock-free.
func (h *Hub) lookup(name string) (*tenant, error) {
	t := h.table()[name]
	if t == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// Submit enqueues one event for a tenant: SubmitBatch with a batch of one.
func (h *Hub) Submit(name string, ev Event) error {
	evs := [1]Event{ev}
	_, err := h.SubmitBatch(name, evs[:])
	return err
}

// SubmitBatch enqueues evs for a tenant in order, with one tenant lookup and
// one acquisition of its queue lock. Each event meets the circuit breaker
// and, under a full queue, the tenant's backpressure policy exactly as if it
// were submitted alone: Block waits, DropOldest evicts, Reject fails with
// ErrBackpressure. It returns how many events were admitted and, when that
// is fewer than len(evs), the error refusing evs[admitted]; the events after
// it are not attempted.
func (h *Hub) SubmitBatch(name string, evs []Event) (admitted int, err error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	t, err := h.lookup(name)
	if err != nil {
		return 0, err
	}
	return t.enqueue(evs)
}

// admitLocked applies the tenant's circuit breaker to one submission; the
// caller holds t.mu. A quarantined tenant whose readmission backoff has
// elapsed admits exactly one event as the probe (transitioning to Probing);
// everything else is refused with ErrQuarantined until the probe's outcome
// is known.
func (t *tenant) admitLocked() error {
	switch t.health {
	case Healthy:
		return nil
	case Quarantined:
		if !t.hub.cfg.Clock().Before(t.quarantineUntil) {
			t.health = Probing
			return nil
		}
	}
	t.shed.Add(1)
	return fmt.Errorf("%w: %q", ErrQuarantined, t.name)
}

func (t *tenant) enqueue(evs []Event) (admitted int, err error) {
	t.mu.Lock()
	for i := range evs {
		// A healthy tenant with room admits without consulting the
		// breaker or the policy.
		if t.health != Healthy || t.n == len(t.buf) || t.closed {
			if err = t.admitOneLocked(); err != nil {
				break
			}
		}
		t.buf[(t.head+t.n)%len(t.buf)] = evs[i]
		t.n++
		admitted++
	}
	t.ingested.Add(uint64(admitted))
	wake := admitted > 0 && !t.scheduled
	if wake {
		t.scheduled = true
	}
	t.mu.Unlock()
	if wake {
		t.hub.schedule(t)
	}
	return admitted, err
}

// admitOneLocked decides one event of a batch: the circuit breaker, then
// the backpressure policy until the queue has a free slot. Under Block the
// tenant is scheduled before the producer waits, so the events this batch
// already queued drain and free the slot. The caller holds t.mu.
func (t *tenant) admitOneLocked() error {
	if err := t.admitLocked(); err != nil {
		return err
	}
	for t.n == len(t.buf) && !t.closed {
		switch t.policy {
		case DropOldest:
			t.head = (t.head + 1) % len(t.buf)
			t.n--
			t.dropped.Add(1)
		case Reject:
			t.rejected.Add(1)
			return fmt.Errorf("%w: %q", ErrBackpressure, t.name)
		default: // Block
			if !t.scheduled {
				// Lock order is t.mu before qmu.
				t.scheduled = true
				t.hub.schedule(t)
			}
			t.notFull.Wait()
			if t.hub.closed.Load() {
				return ErrClosed
			}
			// A quarantine trip while this producer was parked flushed
			// the queue and woke it; the breaker decides again.
			if err := t.admitLocked(); err != nil {
				return err
			}
		}
	}
	if t.closed {
		return fmt.Errorf("%w (tenant %q)", ErrClosed, t.name)
	}
	return nil
}

func (h *Hub) schedule(t *tenant) {
	h.qmu.Lock()
	h.runq.push(t)
	h.qmu.Unlock()
	h.qcond.Signal()
}

// runQueue is the hub's FIFO of scheduled tenants over one reused array:
// a pop advances a head offset, and a push that finds the array full moves
// the queue back to the front once at least a fifth of it was popped, so
// the array grows only when more than four fifths of it are queued. Steady
// scheduling reallocates nothing.
type runQueue struct {
	buf  []*tenant // buf[head:] are the queued tenants, oldest first
	head int
}

// items returns the queued tenants, oldest first; valid until the next
// push, pop or truncate.
func (q *runQueue) items() []*tenant { return q.buf[q.head:] }

func (q *runQueue) len() int { return len(q.buf) - q.head }

func (q *runQueue) push(t *tenant) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= q.len()/4 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, t)
}

// pop removes and returns the oldest tenant; the queue must not be empty.
func (q *runQueue) pop() *tenant {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return t
}

// truncate keeps the n oldest tenants, clearing the slots of the rest.
func (q *runQueue) truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	if n == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

func (h *Hub) worker() {
	defer h.wg.Done()
	// The group slice is owned by this worker and reused every turn, so
	// steady-state scheduling allocates nothing.
	group := make([]*tenant, 0, h.cfg.GroupBatch)
	for {
		var ok bool
		group, ok = h.drainTurn(group)
		if !ok {
			return
		}
	}
}

// groupScanLimit caps how deep into the run queue a scheduling turn looks
// for same-model companions, bounding time spent under qmu on huge fleets;
// 128 entries is far past the point where one GroupBatch fills.
const groupScanLimit = 128

// drainTurn performs one scheduling turn: block for the head of the run
// queue, pull out up to GroupBatch-1 more queued tenants serving the same
// model, and drain one batch from each in sequence so the group's shared
// score tables stay cache-hot across consecutive batches. Grouped tenants
// are removed from the run queue exactly as if a worker had popped them —
// every tenant still runs runBatch with identical semantics (order,
// counters, backpressure, rescheduling), so grouping cannot change results.
// Returns ok=false when the hub is stopping and the run queue is empty.
func (h *Hub) drainTurn(group []*tenant) (_ []*tenant, ok bool) {
	h.qmu.Lock()
	for h.runq.len() == 0 && !h.stopping {
		h.qcond.Wait()
	}
	if h.runq.len() == 0 {
		h.qmu.Unlock()
		return group, false
	}
	t := h.runq.pop()
	group = h.extractGroupLocked(t, group[:0])
	h.qmu.Unlock()
	for i, gt := range group {
		gt.runBatch(h.cfg.BatchSize)
		group[i] = nil
	}
	return group, true
}

// extractGroupLocked seeds group with the just-popped leader and extracts
// up to GroupBatch-1 run-queue tenants sharing its non-zero model key,
// scanning at most groupScanLimit entries. Extracted tenants are compacted
// out in place; the remaining queue keeps its order. Caller holds qmu.
func (h *Hub) extractGroupLocked(t *tenant, group []*tenant) []*tenant {
	group = append(group, t)
	want := h.cfg.GroupBatch - 1
	q := h.runq.items()
	if want <= 0 || len(q) == 0 {
		return group
	}
	key := t.modelKey.Load()
	if key == 0 {
		return group
	}
	scan := len(q)
	if scan > groupScanLimit {
		scan = groupScanLimit
	}
	w, taken := 0, 0
	for r := 0; r < scan; r++ {
		c := q[r]
		if taken < want && c.modelKey.Load() == key {
			group = append(group, c)
			taken++
			continue
		}
		q[w] = c
		w++
	}
	if taken > 0 {
		copy(q[w:], q[scan:])
		h.runq.truncate(len(q) - taken)
		h.grouped.Add(uint64(taken))
	}
	return group
}

// runBatch drains up to max events from the tenant's queue through its
// processor, then either reschedules the tenant (more pending) or marks it
// idle. procMu keeps the tenant's stream serialized against other workers
// and against Update.
//
// The whole chunk is drained under one queue-lock acquisition (into the
// tenant's reusable drain scratch) instead of one lock round-trip per
// event, freeing every slot at once before processing outside the lock —
// blocked producers are woken once per chunk, not once per event.
//
// Service times are sampled: latSampled picks one event in latSampleEvery
// from the tenant's served counter, the tenant's first event always among
// them. A sample is its Handle call alone (the processor's work and the
// panic recovery), read with the hub's Clock before and after; the other
// events read no clock at all.
func (t *tenant) runBatch(max int) {
	t.procMu.Lock()
	defer t.procMu.Unlock()
	t.mu.Lock()
	if t.n == 0 || t.closed {
		t.scheduled = false
		t.mu.Unlock()
		return
	}
	k := t.n
	if k > max {
		k = max
	}
	if cap(t.drain) < k {
		t.drain = make([]Event, k)
	}
	batch := t.drain[:k]
	for i := 0; i < k; i++ {
		batch[i] = t.buf[t.head]
		t.buf[t.head] = Event{}
		t.head = (t.head + 1) % len(t.buf)
	}
	t.n -= k
	t.notFull.Broadcast()
	t.mu.Unlock()

	// Counted locally and published once per batch, so the workers do
	// not write shared counters per event.
	var processed, alarms, errs uint64
	for i := range batch {
		var alarmed bool
		var err error
		if latSampled(t.served) {
			start := t.hub.cfg.Clock()
			alarmed, err = t.handleOne(batch[i])
			t.lat.record(t.hub.cfg.Clock().Sub(start))
		} else {
			alarmed, err = t.handleOne(batch[i])
		}
		t.served++
		processed++
		if alarmed {
			alarms++
		}
		if err != nil {
			errs++
			if t.onError != nil {
				t.onError(batch[i], err)
			}
		}
		batch[i] = Event{}
		if t.noteOutcome(err) {
			// The circuit breaker tripped: the queue was flushed under
			// noteOutcome; discard the rest of this drained batch too so
			// the failing processor sees no further events.
			rest := batch[i+1:]
			clear(rest)
			t.shed.Add(uint64(len(rest)))
			break
		}
	}
	t.processed.Add(processed)
	if alarms > 0 {
		t.alarms.Add(alarms)
	}
	if errs > 0 {
		t.errs.Add(errs)
	}

	// Chunk done: yield the worker, keeping the tenant scheduled if more
	// events arrived while processing.
	t.mu.Lock()
	if t.n > 0 && !t.closed {
		t.mu.Unlock()
		t.hub.schedule(t)
		return
	}
	t.scheduled = false
	t.mu.Unlock()
}

// handleOne runs the processor on one event, converting a panic into a
// counted ErrPanic failure: a panicking tenant processor never takes down
// the worker — or the other tenants it serves.
func (t *tenant) handleOne(ev Event) (alarmed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			t.panics.Add(1)
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return t.proc.Handle(ev)
}

// noteOutcome feeds one event's outcome into the tenant's circuit breaker
// and reports whether this outcome tripped quarantine (flushing the queue).
// Called from runBatch under procMu; takes t.mu (documented lock order)
// unless a success meets a clean breaker.
func (t *tenant) noteOutcome(err error) (tripped bool) {
	if err == nil && t.breakerClean {
		return false
	}
	threshold := t.hub.cfg.QuarantineAfter
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		t.consecFails = 0
		if t.health != Healthy {
			// Readmission probe succeeded: restore service, forget the
			// backoff history.
			t.health = Healthy
			t.backoff = 0
		}
		t.breakerClean = true
		return false
	}
	t.breakerClean = false
	t.lastErr = err.Error()
	if threshold <= 0 {
		return false // quarantine disabled; failures are only counted
	}
	t.consecFails++
	if t.health != Probing && t.consecFails < threshold {
		return false
	}
	// Trip (or re-trip after a failed readmission probe): double the
	// backoff, flush the queue, and refuse submissions until the next
	// probe window.
	if t.backoff <= 0 {
		t.backoff = t.hub.cfg.QuarantineBackoff
	} else {
		t.backoff *= 2
		if t.backoff > t.hub.cfg.QuarantineMaxBackoff {
			t.backoff = t.hub.cfg.QuarantineMaxBackoff
		}
	}
	t.health = Quarantined
	t.quarantineUntil = t.hub.cfg.Clock().Add(t.backoff)
	t.consecFails = 0
	if t.n > 0 {
		t.shed.Add(uint64(t.n))
		t.head, t.n = 0, 0
	}
	t.notFull.Broadcast()
	return true
}

// Update pauses the tenant's stream between events and runs fn on its
// processor; the returned processor replaces the current one (return the
// argument, mutated, for an in-place model hot-swap). Queued events are
// retained and continue through the updated processor, so a swap loses
// neither queued nor in-flight events.
func (h *Hub) Update(name string, fn func(Processor) (Processor, error)) error {
	if fn == nil {
		return errors.New("hub: nil update")
	}
	t, err := h.lookup(name)
	if err != nil {
		return err
	}
	t.procMu.Lock()
	defer t.procMu.Unlock()
	p, err := fn(t.proc)
	if err != nil {
		return err
	}
	if p == nil {
		return errors.New("hub: update returned nil processor")
	}
	t.proc = p
	if mk, ok := p.(ModelKeyed); ok {
		t.modelKey.Store(mk.ModelKey())
	} else {
		t.modelKey.Store(0)
	}
	t.updates.Add(1)
	return nil
}

// Quiesce blocks until the tenant's queue is empty and no event is in
// flight: on return the tenant's stream sits at an exact event boundary,
// every previously accepted event fully processed. The caller must
// guarantee no concurrent Submit for the tenant (the fleet router suspends
// the route first), or Quiesce may never observe an empty queue. Returns
// ErrClosed if the hub closes while the tenant is still draining.
func (h *Hub) Quiesce(name string) error {
	t, err := h.lookup(name)
	if err != nil {
		return err
	}
	for {
		// procMu excludes an in-flight batch; with it held, an empty queue
		// means the stream is at a boundary.
		t.procMu.Lock()
		t.mu.Lock()
		idle := t.n == 0
		t.mu.Unlock()
		t.procMu.Unlock()
		if idle {
			return nil
		}
		if h.closed.Load() {
			return ErrClosed
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Close stops intake, drains every queued event through its tenant's
// processor, and stops the workers. Submit calls concurrent with Close
// either complete before the drain or fail with ErrClosed. Close is
// idempotent. A wedged processor blocks Close forever; use CloseWithin to
// bound the drain.
func (h *Hub) Close() error { return h.CloseWithin(0) }

// CloseWithin is Close with a drain deadline: when the workers and the
// final queue sweep do not finish within d, CloseWithin abandons the drain
// and returns ErrDrainTimeout — intake is stopped either way, but events
// queued behind a wedged processor are not delivered (the wedged Handle
// call itself cannot be interrupted and leaks its goroutine, which is the
// best Go can do against runaway third-party code). d <= 0 waits forever.
func (h *Hub) CloseWithin(d time.Duration) error {
	if h.closed.Swap(true) {
		return nil
	}
	// Taking h.mu orders this load after every Register that saw the hub
	// open: no later Register succeeds, so the table holds every tenant the
	// sweeps below must reach.
	h.mu.Lock()
	tenants := h.table()
	h.mu.Unlock()
	// Release producers blocked on full queues; they observe the closed
	// hub and fail their Submit.
	for _, t := range tenants {
		t.mu.Lock()
		t.notFull.Broadcast()
		t.mu.Unlock()
	}
	h.qmu.Lock()
	h.stopping = true
	h.qmu.Unlock()
	h.qcond.Broadcast()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.wg.Wait()
		// Sweep events that slipped in between the closed check of a
		// racing Submit and worker shutdown.
		for _, t := range tenants {
			for {
				t.mu.Lock()
				pending := t.n
				t.mu.Unlock()
				if pending == 0 {
					break
				}
				t.runBatch(h.cfg.BatchSize)
			}
		}
	}()
	if d <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return ErrDrainTimeout
	}
}

// TenantStats is one tenant's runtime counters.
type TenantStats struct {
	Tenant     string
	Ingested   uint64
	Processed  uint64
	Alarms     uint64
	Dropped    uint64
	Rejected   uint64
	Errors     uint64
	QueueDepth int
	// P50 and P99 are service-time percentiles (nearest rank) over the
	// tenant's most recent LatencySamples samples. A sample is the Handle
	// call of one served event in latSampleEvery (64), the first event
	// included. Each percentile is the midpoint of its log-linear bucket,
	// within 1/32 of every sample in that bucket (16 buckets per power of
	// two); zero only when no event was served.
	P50 time.Duration
	P99 time.Duration
	// Health is the tenant's circuit-breaker state; Panics counts
	// recovered processor panics; Shed counts events refused or
	// discarded while quarantined; LastError is the most recent failure
	// (empty when the tenant never failed).
	Health    Health
	Panics    uint64
	Shed      uint64
	LastError string
	// Updates counts successful stream-pausing Update calls — model hot
	// swaps, checkpoints, flushes.
	Updates uint64
}

// AddCounters adds o's cumulative counters — every count but QueueDepth —
// into t. The point-in-time fields (queue depth, percentiles, health, last
// error) keep t's values.
func (t *TenantStats) AddCounters(o TenantStats) {
	t.Ingested += o.Ingested
	t.Processed += o.Processed
	t.Alarms += o.Alarms
	t.Dropped += o.Dropped
	t.Rejected += o.Rejected
	t.Errors += o.Errors
	t.Panics += o.Panics
	t.Shed += o.Shed
	t.Updates += o.Updates
}

// Stats is a point-in-time snapshot of the hub's counters.
type Stats struct {
	// Tenants holds one entry per hosted tenant, sorted by name.
	Tenants []TenantStats
	// Total aggregates every tenant (its Tenant field is empty; its
	// latency percentiles are those of the union of all tenants' windows;
	// its Health is Quarantined when any tenant is not Healthy).
	Total   TenantStats
	Workers int
	// Grouped counts tenants drained as same-model group followers — the
	// scheduler's batching win; zero when grouping is disabled or no two
	// queued tenants shared a model.
	Grouped uint64
}

// statsSnapshot captures one tenant's counters, leaving its latency window's
// bucket counts in lat (for cross-tenant aggregation).
func (t *tenant) statsSnapshot(lat *latHist) TenantStats {
	t.mu.Lock()
	depth := t.n
	health := t.health
	lastErr := t.lastErr
	t.mu.Unlock()
	lat.load(t.lat)
	p50, p99 := lat.percentiles()
	return TenantStats{
		Tenant:     t.name,
		Ingested:   t.ingested.Load(),
		Processed:  t.processed.Load(),
		Alarms:     t.alarms.Load(),
		Dropped:    t.dropped.Load(),
		Rejected:   t.rejected.Load(),
		Errors:     t.errs.Load(),
		QueueDepth: depth,
		P50:        p50,
		P99:        p99,
		Health:     health,
		Panics:     t.panics.Load(),
		Shed:       t.shed.Load(),
		LastError:  lastErr,
		Updates:    t.updates.Load(),
	}
}

// TenantStats snapshots a single tenant's runtime counters without walking
// the whole fleet — the migration handoff uses it to carry a tenant's
// counters to its new shard.
func (h *Hub) TenantStats(name string) (TenantStats, error) {
	t, err := h.lookup(name)
	if err != nil {
		return TenantStats{}, err
	}
	var lat latHist
	return t.statsSnapshot(&lat), nil
}

// Stats snapshots the hub's runtime counters.
func (h *Hub) Stats() Stats {
	table := h.table()
	tenants := make([]*tenant, 0, len(table))
	for _, t := range table {
		tenants = append(tenants, t)
	}
	slices.SortFunc(tenants, func(a, b *tenant) int { return strings.Compare(a.name, b.name) })

	s := Stats{Tenants: make([]TenantStats, 0, len(tenants)), Workers: h.cfg.Workers, Grouped: h.grouped.Load()}
	var one, all latHist
	for _, t := range tenants {
		ts := t.statsSnapshot(&one)
		all.add(&one)
		s.Tenants = append(s.Tenants, ts)
		s.Total.AddCounters(ts)
		s.Total.QueueDepth += ts.QueueDepth
		if ts.Health != Healthy {
			s.Total.Health = Quarantined
		}
	}
	s.Total.P50, s.Total.P99 = all.percentiles()
	return s
}
