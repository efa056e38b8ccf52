package causaliot

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/fleet"
	"github.com/causaliot/causaliot/internal/hub"
)

// Fleet serving errors. ErrMigrationInFlight marks an operation refused
// because the tenant is already mid-migration; ErrUnknownShard an operation
// addressing a shard id the fleet does not host; ErrLastShard a RemoveShard
// that would leave the fleet empty.
var (
	ErrMigrationInFlight = fleet.ErrMigrating
	ErrUnknownShard      = fleet.ErrUnknownShard
	ErrLastShard         = fleet.ErrLastShard
)

// Host is the serving surface Hub and Fleet share: register homes, submit
// events, consume alarms, pause-and-export state, and shut down. Code
// written against Host runs unchanged on a single hub or a sharded fleet —
// swap NewHub for NewFleet and nothing else moves.
type Host interface {
	Register(tenant string, sys *System, opts TenantOptions) error
	RegisterMonitor(tenant string, mon *Monitor, opts TenantOptions) error
	Deregister(tenant string) error
	Submit(tenant string, ev Event) error
	Alarms() <-chan TenantAlarm
	SetAlarmRoute(tenant string, sink func(TenantAlarm)) error
	Swap(tenant string, sys *System) error
	Export(tenant string, opts ExportOptions) error
	Flush(tenant string) error
	Stats() HubStats
	LifecycleStats() map[string]LifecycleStats
	Close() error
	CloseWithin(d time.Duration) error
}

var (
	_ Host  = (*Hub)(nil)
	_ Host  = (*Fleet)(nil)
	_ Shard = (*Hub)(nil)
)

// Shard is one serving shard behind the fleet's router: an in-process *Hub
// (every NewFleet/AddShard shard) or a shard worker in another OS process
// reached over the cluster wire protocol (AddRemoteShard). The fleet treats
// the two identically — placement, live migration, stats aggregation, and
// shutdown all speak this surface — so a fleet can mix local and remote
// shards freely and a migration can cross a process boundary.
type Shard interface {
	// RegisterMonitor hosts a live monitor on the shard, delivering its
	// alarms to opts.OnAlarm. The shard takes ownership of the monitor; a
	// remote shard serializes it through the checkpoint envelope and closes
	// the local copy.
	RegisterMonitor(tenant string, mon *Monitor, opts TenantOptions) error
	// ImportEnvelope hosts a tenant restored from a checkpoint envelope —
	// the transport live migration and remote registration share. A nil
	// state registers a fresh monitor over the model alone.
	ImportEnvelope(tenant string, model, state []byte, opts TenantOptions) error
	// ExportEnvelope returns the tenant's checkpoint envelope. Quiesce
	// first: the envelope then covers an exact event boundary.
	ExportEnvelope(tenant string) (model, state []byte, err error)
	// Quiesce blocks until every event accepted for the tenant so far is
	// fully processed.
	Quiesce(tenant string) error
	Deregister(tenant string) error
	Submit(tenant string, ev Event) error
	Swap(tenant string, sys *System) error
	Export(tenant string, opts ExportOptions) error
	Flush(tenant string) error
	TenantStats(tenant string) (TenantStats, error)
	Stats() HubStats
	LifecycleStats() map[string]LifecycleStats
	// Health reports the shard's serving health; for a remote shard, the
	// link state and fault-tolerance counters.
	Health() ShardHealth
	Close() error
	CloseWithin(d time.Duration) error
}

// ShardHealth is one shard's health summary, surfaced in FleetStats and the
// serve command's stats JSON.
type ShardHealth struct {
	// Remote is false for an in-process shard. Addr is the worker address
	// of a remote shard.
	Remote bool   `json:"remote"`
	Addr   string `json:"addr,omitempty"`
	// Link is "local" for an in-process shard, else the remote link state:
	// connected, degraded (reconnecting; events banked), or gave-up.
	Link string `json:"link"`
	// Remote fault-tolerance counters: link recoveries, per-tenant resume
	// ops, events retransmitted from the window, events currently banked
	// awaiting acknowledgement, and checkpoint envelope bytes moved in each
	// direction.
	Reconnects       uint64 `json:"reconnects,omitempty"`
	Resumes          uint64 `json:"resumes,omitempty"`
	Retransmits      uint64 `json:"retransmits,omitempty"`
	PendingEvents    int    `json:"pending_events,omitempty"`
	EnvelopeBytesIn  uint64 `json:"envelope_bytes_in,omitempty"`
	EnvelopeBytesOut uint64 `json:"envelope_bytes_out,omitempty"`
}

// FleetConfig tunes a sharded serving fleet. The zero value selects one
// shard with default hub settings.
type FleetConfig struct {
	// Shards is the initial number of hub shards. Defaults to 1.
	Shards int
	// Replicas is the virtual-node count per shard on the consistent-hash
	// ring; more replicas smooth tenant placement. Defaults to 64.
	Replicas int
	// Hub configures every shard's hub. Note Workers is per shard: a fleet
	// of S shards runs S×Workers workers (Workers=0 defaults each shard to
	// GOMAXPROCS — size it explicitly for multi-shard fleets).
	Hub HubConfig
}

// fleetTenant is the fleet's per-home registration record: the options to
// re-register with on migration, and the counters carried over from shards
// that previously served the home, so Stats stays cumulative across
// migrations.
type fleetTenant struct {
	opts TenantOptions

	mu      sync.Mutex
	carried TenantStats
	// route, when set (SetAlarmRoute), receives the home's alarms ahead of
	// opts.OnAlarm and the fan-in channel. It lives on the fleet record —
	// not any one shard hub — so it follows the home across migrations.
	route func(TenantAlarm)
}

func (ft *fleetTenant) alarmRoute() func(TenantAlarm) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.route
}

// carry adds a finished shard life's counters; the point-in-time fields
// are taken from ts, the more recent snapshot.
func (ft *fleetTenant) carry(ts TenantStats) {
	ft.mu.Lock()
	ts.AddCounters(ft.carried)
	ft.carried = ts
	ft.mu.Unlock()
}

func (ft *fleetTenant) carriedStats() TenantStats {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.carried
}

// Fleet serves many independent homes across N in-process hub shards:
// tenants are consistent-hashed onto shards, each shard is a full Hub
// (bounded per-home queues over its own worker pool), and the fleet
// presents the same outward surface as a single Hub — Submit, fan-in
// Alarms, Register/Deregister, aggregated Stats — so callers swap NewHub
// for NewFleet without other changes.
//
// Beyond the Hub surface, a fleet can Migrate a live tenant between shards
// with zero event loss and Rebalance the whole fleet after AddShard or
// RemoveShard. A migration reuses the crash-recovery checkpoint envelope as
// its transport: the tenant's route is suspended (submissions buffer in a
// bounded gap), the source shard is quiesced to an exact event boundary,
// model and runtime state are exported, restored, and registered on the
// target, the gap replays, and the route flips atomically.
//
// All methods are safe for concurrent use.
type Fleet struct {
	cfg    FleetConfig
	router *fleet.Router

	alarms        chan TenantAlarm
	alarmsDropped atomic.Uint64
	// dropLogged records which tenants already logged an alarm drop off the
	// fan-in channel: one log line per home, not a flood.
	dropLogged sync.Map

	mu        sync.RWMutex
	shards    map[int]Shard
	nextShard int
	tenants   map[string]*fleetTenant

	closed atomic.Bool
	// migMu/migCond guard migActive, the count of migrations in flight.
	// Close must not drain the shards under a live handoff, and a plain
	// WaitGroup cannot express "no new Add after close" — the counter is
	// checked and bumped under the same lock as the closed flag.
	migMu     sync.Mutex
	migCond   *sync.Cond
	migActive int
	closeErr  error
}

// NewFleet starts a sharded serving fleet: cfg.Shards hubs, each with its
// own worker pool, behind one consistent-hash router. Close it to drain and
// stop every shard.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	return newFleet(cfg, cfg.Shards)
}

// newFleet builds a fleet with hubs in-process hub shards; zero is allowed
// for cluster routers whose shards are all remote (AddRemoteShard).
func newFleet(cfg FleetConfig, hubs int) *Fleet {
	buffer := cfg.Hub.AlarmBuffer
	if buffer <= 0 {
		buffer = 256
	}
	f := &Fleet{
		cfg:     cfg,
		router:  fleet.NewRouter(cfg.Replicas),
		alarms:  make(chan TenantAlarm, buffer),
		shards:  make(map[int]Shard),
		tenants: make(map[string]*fleetTenant),
	}
	f.migCond = sync.NewCond(&f.migMu)
	for i := 0; i < hubs; i++ {
		id := f.nextShard
		f.nextShard++
		f.shards[id] = NewHub(cfg.Hub)
		f.router.AddShard(id)
	}
	return f
}

// shard fetches a live shard by id.
func (f *Fleet) shard(id int) Shard {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.shards[id]
}

// Shards returns the current shard ids, sorted.
func (f *Fleet) Shards() []int { return f.router.Shards() }

// ShardOf returns the shard currently serving a tenant.
func (f *Fleet) ShardOf(tenant string) (int, error) {
	id, ok := f.router.Route(tenant)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	return id, nil
}

// Alarms returns the fan-in channel on which homes without an OnAlarm
// callback deliver their alarms, whichever shard serves them. Delivery
// happens on the home's stream thread, so one home's alarms stay ordered —
// including across a live migration. The channel is closed by Close after
// the final drain.
func (f *Fleet) Alarms() <-chan TenantAlarm { return f.alarms }

// shardOptions is the home's options as a shard registers them, with the
// fleet's delivery as OnAlarm. The delivery consults the fleet's per-home
// record on every alarm — SetAlarmRoute first, then the home's own OnAlarm,
// then the fan-in channel — so a route set mid-migration takes effect the
// moment the home lands on its new shard, and an alarm that cannot be
// delivered is counted and logged, never silently discarded.
func (f *Fleet) shardOptions(ft *fleetTenant) TenantOptions {
	opts := ft.opts
	opts.OnAlarm = func(tenant string, alarm *Alarm, score float64) {
		ta := TenantAlarm{Tenant: tenant, Alarm: alarm}
		if route := ft.alarmRoute(); route != nil {
			route(ta)
			return
		}
		if ft.opts.OnAlarm != nil {
			ft.opts.OnAlarm(tenant, alarm, score)
			return
		}
		select {
		case f.alarms <- ta:
		default:
			f.noteAlarmDropped(tenant)
		}
	}
	return opts
}

// noteAlarmDropped counts one alarm discarded off the full fan-in channel
// and logs the first drop per home.
func (f *Fleet) noteAlarmDropped(tenant string) {
	f.alarmsDropped.Add(1)
	if _, logged := f.dropLogged.LoadOrStore(tenant, struct{}{}); !logged {
		log.Printf("causaliot: fleet alarms channel full; dropping alarms for home %q (first drop — consume Alarms faster or raise AlarmBuffer)", tenant)
	}
}

// SetAlarmRoute directs a home's alarms to sink, taking precedence over
// both the home's OnAlarm callback and the fan-in Alarms channel; a nil
// sink restores the previous delivery. The route is a fleet-level property
// of the home: it survives live migration between shards. The sink runs on
// the home's stream thread — return quickly or hand off.
func (f *Fleet) SetAlarmRoute(tenant string, sink func(TenantAlarm)) error {
	f.mu.RLock()
	ft := f.tenants[tenant]
	f.mu.RUnlock()
	if ft == nil {
		return fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	ft.mu.Lock()
	ft.route = sink
	ft.mu.Unlock()
	return nil
}

// Register hosts a home on the fleet, placed on its ring-assigned shard: a
// fresh Monitor is started from the trained system and fed the home's
// submitted events in order.
func (f *Fleet) Register(tenant string, sys *System, opts TenantOptions) error {
	if sys == nil {
		return errors.New("causaliot: register with nil system")
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		return err
	}
	if err := f.RegisterMonitor(tenant, mon, opts); err != nil {
		mon.Close()
		return err
	}
	return nil
}

// RegisterMonitor hosts a home on an existing monitor — typically one
// restored from a checkpoint — on its ring-assigned shard. The fleet takes
// ownership of the monitor.
func (f *Fleet) RegisterMonitor(tenant string, mon *Monitor, opts TenantOptions) error {
	if mon == nil {
		return errors.New("causaliot: register with nil monitor")
	}
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return ErrHubClosed
	}
	if _, dup := f.tenants[tenant]; dup {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, tenant)
	}
	shard, ok := f.router.Owner(tenant)
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: fleet has no shards", ErrUnknownShard)
	}
	s := f.shards[shard]
	ft := &fleetTenant{opts: opts}
	f.tenants[tenant] = ft
	f.mu.Unlock()

	unreserve := func() {
		f.mu.Lock()
		delete(f.tenants, tenant)
		f.mu.Unlock()
	}
	if err := s.RegisterMonitor(tenant, mon, f.shardOptions(ft)); err != nil {
		unreserve()
		return err
	}
	if err := f.router.Activate(tenant, shard, f.gapPolicy(opts), f.gapCap(opts), f.submitTo(tenant)); err != nil {
		_ = s.Deregister(tenant)
		unreserve()
		return err
	}
	return nil
}

// gapCap sizes a tenant's migration gap buffer to its ingestion queue
// capacity, so a replayed gap always fits the freshly registered (empty)
// queue on the target shard without tripping backpressure.
func (f *Fleet) gapCap(opts TenantOptions) int {
	if opts.QueueSize > 0 {
		return opts.QueueSize
	}
	if f.cfg.Hub.QueueSize > 0 {
		return f.cfg.Hub.QueueSize
	}
	return 1024
}

func (f *Fleet) gapPolicy(opts TenantOptions) hub.Policy {
	return opts.Backpressure.Or(f.cfg.Hub.Backpressure)
}

// Deregister removes a home from the fleet, discarding its queued events
// and releasing any producers blocked on its queue. A migration in flight
// for the home completes first.
func (f *Fleet) Deregister(tenant string) error {
	shard, ok := f.router.Remove(tenant)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	f.mu.Lock()
	delete(f.tenants, tenant)
	s := f.shards[shard]
	f.mu.Unlock()
	if s == nil {
		return fmt.Errorf("%w %d", ErrUnknownShard, shard)
	}
	return s.Deregister(tenant)
}

// submitTo builds a home's shard enqueue sink, created once per
// registration and stored on the router's route entry — the event path
// then closes over nothing and allocates nothing. A batch reaches a local
// or remote shard whole; any other Shard implementation gets one Submit
// per event.
func (f *Fleet) submitTo(tenant string) fleet.Sink {
	return func(shard int, evs []Event) (int, error) {
		switch s := f.shard(shard).(type) {
		case nil:
			return 0, fmt.Errorf("%w %d", ErrUnknownShard, shard)
		case *Hub:
			return s.inner.SubmitBatch(tenant, evs)
		case *remoteShard:
			n, err := s.p.SubmitBatch(tenant, evs)
			return n, clusterFacadeError(err)
		default:
			for i, ev := range evs {
				if err := s.Submit(tenant, ev); err != nil {
					return i, err
				}
			}
			return len(evs), nil
		}
	}
}

// Submit enqueues one event for a home on whichever shard serves it. While
// the home is mid-migration the event is buffered in the migration gap and
// replayed onto the target shard before the route flips; a full gap applies
// the home's backpressure policy.
func (f *Fleet) Submit(tenant string, ev Event) error {
	if f.closed.Load() {
		return ErrHubClosed
	}
	buf := singleEvents.Get().(*[1]Event)
	buf[0] = ev
	_, err := f.router.DispatchBatch(tenant, buf[:])
	singleEvents.Put(buf)
	return err
}

// singleEvents backs Submit's batch of one: the route sink is a func value,
// so a batch handed to it cannot live on the stack, and a fresh one per
// event would cost an allocation.
var singleEvents = sync.Pool{New: func() any { return new([1]Event) }}

// submitBatch enqueues a batch of events for a home with one route lookup
// and one hold of the route.
func (f *Fleet) submitBatch(tenant string, evs []Event) (int, error) {
	if f.closed.Load() {
		return 0, ErrHubClosed
	}
	return f.router.DispatchBatch(tenant, evs)
}

// control runs fn against the home's serving shard with migrations
// excluded and the route held.
func (f *Fleet) control(tenant string, fn func(s Shard) error) error {
	return f.router.Control(tenant, func(shard int) error {
		s := f.shard(shard)
		if s == nil {
			return fmt.Errorf("%w %d", ErrUnknownShard, shard)
		}
		return fn(s)
	})
}

// Swap hot-swaps a home's model on its serving shard (see Hub.Swap).
func (f *Fleet) Swap(tenant string, sys *System) error {
	if sys == nil {
		return errors.New("causaliot: swap to nil system")
	}
	return f.control(tenant, func(s Shard) error { return s.Swap(tenant, sys) })
}

// Export writes a home's serving artifacts under a single stream pause on
// its serving shard (see Hub.Export), serialized against migrations: an
// export never observes a half-moved home.
func (f *Fleet) Export(tenant string, opts ExportOptions) error {
	return f.control(tenant, func(s Shard) error { return s.Export(tenant, opts) })
}

// Flush reports a home's partially tracked anomaly chain (if any) through
// its alarm route (see Hub.Flush).
func (f *Fleet) Flush(tenant string) error {
	return f.control(tenant, func(s Shard) error { return s.Flush(tenant) })
}

// Migrate moves a live home to another shard with zero event loss: the
// home's route is suspended (submissions buffer in the migration gap), the
// source shard quiesces the home to an exact event boundary, the serving
// model and runtime checkpoint are exported and restored onto the target
// shard through the same envelope crash recovery uses, the gap replays, and
// the route flips atomically. The home's stats counters carry over.
//
// A background model refresh in flight on the source is abandoned — its
// hot swap can no longer land — and the drift that triggered it is
// re-detected on the target shard as fresh evidence accumulates.
func (f *Fleet) Migrate(tenant string, shard int) error {
	// The closed check and the in-flight count move together under migMu:
	// either this migration is counted before Close starts waiting, or it
	// observes the closed fleet and refuses.
	f.migMu.Lock()
	if f.closed.Load() {
		f.migMu.Unlock()
		return ErrHubClosed
	}
	f.migActive++
	f.migMu.Unlock()
	defer func() {
		f.migMu.Lock()
		f.migActive--
		if f.migActive == 0 {
			f.migCond.Broadcast()
		}
		f.migMu.Unlock()
	}()
	f.mu.RLock()
	dst := f.shards[shard]
	ft := f.tenants[tenant]
	f.mu.RUnlock()
	if dst == nil {
		return fmt.Errorf("%w %d", ErrUnknownShard, shard)
	}
	if ft == nil {
		return fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	_, err := f.router.Migrate(tenant, shard,
		func(from int) error { return f.handoff(tenant, ft, from, shard) })
	return err
}

// handoff pipes one home through the checkpoint envelope from shard `from`
// to shard `to` while the router holds the home's route suspended. Either
// side (or both) may live in another process — the envelope is bytes and
// every step speaks the Shard surface. The source is not deregistered until
// the target registration succeeded, so any failure aborts with the home
// still served where it was.
func (f *Fleet) handoff(tenant string, ft *fleetTenant, from, to int) error {
	src, dst := f.shard(from), f.shard(to)
	if src == nil || dst == nil {
		return fmt.Errorf("%w (%d -> %d)", ErrUnknownShard, from, to)
	}
	// Quiesce: every event accepted before the route was suspended is fully
	// processed, so the exported envelope covers the complete stream prefix.
	// For a remote source this also flushes its banked alarms to the router
	// before the route can flip away.
	if err := src.Quiesce(tenant); err != nil {
		return err
	}
	model, state, err := src.ExportEnvelope(tenant)
	if err != nil {
		return err
	}
	if err := dst.ImportEnvelope(tenant, model, state, f.shardOptions(ft)); err != nil {
		return fmt.Errorf("causaliot: migrate %q: %w", tenant, err)
	}
	// Read the source life's counters before they vanish with the tenant,
	// but carry them only once the source is gone: a failed Deregister
	// leaves the home serving there, and a retried handoff reads them again.
	ts, statsErr := src.TenantStats(tenant)
	if err := src.Deregister(tenant); err != nil {
		_ = dst.Deregister(tenant)
		return err
	}
	if statsErr == nil {
		ft.carry(ts)
	}
	return nil
}

// Rebalance reconciles every home with its ring-assigned shard, live-
// migrating each misplaced one. Homes are visited in name order; the first
// error does not stop the sweep, and all errors are joined.
func (f *Fleet) Rebalance() error {
	var errs []error
	for _, tenant := range f.router.Tenants() {
		owner, ok := f.router.Owner(tenant)
		if !ok {
			continue
		}
		current, ok := f.router.Route(tenant)
		if !ok || current == owner {
			continue
		}
		if err := f.Migrate(tenant, owner); err != nil {
			errs = append(errs, fmt.Errorf("rebalance %q: %w", tenant, err))
		}
	}
	return errors.Join(errs...)
}

// AddShard grows the fleet by one hub shard and rebalances: the ~1/N of
// homes whose ring arcs moved onto the new shard are live-migrated to it.
// Returns the new shard's id.
func (f *Fleet) AddShard() (int, error) {
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return 0, ErrHubClosed
	}
	id := f.nextShard
	f.nextShard++
	f.shards[id] = NewHub(f.cfg.Hub)
	f.mu.Unlock()
	f.router.AddShard(id)
	return id, f.Rebalance()
}

// AddShardFor grows the fleet by one shard backed by the given Shard
// implementation — the hook remote shard proxies attach through (see
// Fleet.AddRemoteShard) — and rebalances onto it. Returns the new shard id.
func (f *Fleet) AddShardFor(s Shard) (int, error) {
	if s == nil {
		return 0, errors.New("causaliot: add nil shard")
	}
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return 0, ErrHubClosed
	}
	id := f.nextShard
	f.nextShard++
	f.shards[id] = s
	f.mu.Unlock()
	f.router.AddShard(id)
	return id, f.Rebalance()
}

// RemoveShard shrinks the fleet: the shard's homes are live-migrated to
// their new ring owners, then the emptied shard's hub is closed. Removing
// the last shard is refused with ErrLastShard.
func (f *Fleet) RemoveShard(id int) error {
	f.mu.RLock()
	h := f.shards[id]
	last := len(f.shards) <= 1
	f.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("%w %d", ErrUnknownShard, id)
	}
	if last {
		return ErrLastShard
	}
	f.router.RemoveShard(id)
	if err := f.Rebalance(); err != nil {
		return err
	}
	if stranded := f.router.TenantsOn(id); len(stranded) > 0 {
		return fmt.Errorf("causaliot: shard %d still serves %d homes after rebalance", id, len(stranded))
	}
	f.mu.Lock()
	delete(f.shards, id)
	f.mu.Unlock()
	return h.Close()
}

// LifecycleStats merges the lifecycle counters of every adaptive home
// across all shards, keyed by tenant name.
func (f *Fleet) LifecycleStats() map[string]LifecycleStats {
	f.mu.RLock()
	shards := make([]Shard, 0, len(f.shards))
	for _, s := range f.shards {
		shards = append(shards, s)
	}
	f.mu.RUnlock()
	out := make(map[string]LifecycleStats)
	for _, s := range shards {
		for name, ls := range s.LifecycleStats() {
			out[name] = ls
		}
	}
	return out
}

// Stats aggregates the fleet's runtime counters into the same shape a
// single Hub reports: one entry per home (cumulative across migrations),
// a fleet-wide total, and the summed worker count. Latency percentiles are
// point-in-time per serving shard; the Total percentiles are the worst
// shard's, a conservative bound.
func (f *Fleet) Stats() HubStats {
	f.mu.RLock()
	ids := make([]int, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	shards := make([]Shard, len(ids))
	for i, id := range ids {
		shards[i] = f.shards[id]
	}
	carried := make(map[string]TenantStats, len(f.tenants))
	for name, ft := range f.tenants {
		carried[name] = ft.carriedStats()
	}
	f.mu.RUnlock()

	merged := make(map[string]TenantStats)
	out := HubStats{AlarmsDropped: f.alarmsDropped.Load()}
	for _, sh := range shards {
		s := sh.Stats()
		out.Workers += s.Workers
		out.AlarmsDropped += s.AlarmsDropped
		out.GroupedDrains += s.GroupedDrains
		for _, ts := range s.Tenants {
			if prev, ok := merged[ts.Tenant]; ok {
				// Mid-handoff a home transiently exists on two shards; sum
				// the counters (the new life starts at zero).
				ts.AddCounters(prev)
			}
			merged[ts.Tenant] = ts
		}
		if s.Total.P50 > out.Total.P50 {
			out.Total.P50 = s.Total.P50
		}
		if s.Total.P99 > out.Total.P99 {
			out.Total.P99 = s.Total.P99
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out.Tenants = make([]TenantStats, 0, len(names))
	for _, name := range names {
		ts := merged[name]
		if c, ok := carried[name]; ok {
			ts.AddCounters(c)
		}
		out.Tenants = append(out.Tenants, ts)
		out.Total.AddCounters(ts)
		out.Total.QueueDepth += ts.QueueDepth
		if ts.Health != HealthHealthy {
			out.Total.Health = HealthQuarantined
		}
	}
	return out
}

// ShardStats is one shard's slice of a FleetStats snapshot.
type ShardStats struct {
	// Shard is the shard id; Tenants the number of homes it serves.
	Shard   int
	Tenants int
	// Hub is the shard's own stats snapshot.
	Hub HubStats
	// Health is the shard's serving health (remote link state et al).
	Health ShardHealth
}

// FleetStats is the fleet-level view Stats does not cover: the per-shard
// breakdown and the migration counters.
type FleetStats struct {
	Shards []ShardStats
	// Migrations counts completed live migrations; Replayed the gap events
	// replayed through them; GapDropped the gap events evicted under a
	// DropOldest policy while a home was mid-migration.
	Migrations uint64
	Replayed   uint64
	GapDropped uint64
	// AlarmsDropped counts alarms discarded because the fleet's fan-in
	// Alarms channel was full. A non-zero value means alarms were lost:
	// consume Alarms faster or raise HubConfig.AlarmBuffer.
	AlarmsDropped uint64
}

// FleetStats snapshots the per-shard breakdown and migration counters.
func (f *Fleet) FleetStats() FleetStats {
	f.mu.RLock()
	ids := make([]int, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	shards := make([]Shard, len(ids))
	for i, id := range ids {
		shards[i] = f.shards[id]
	}
	f.mu.RUnlock()
	out := FleetStats{Shards: make([]ShardStats, len(ids))}
	for i, id := range ids {
		out.Shards[i] = ShardStats{
			Shard:   id,
			Tenants: len(f.router.TenantsOn(id)),
			Hub:     shards[i].Stats(),
			Health:  shards[i].Health(),
		}
	}
	out.Migrations, out.Replayed, out.GapDropped = f.router.Counters()
	out.AlarmsDropped = f.alarmsDropped.Load()
	return out
}

// Close stops intake, waits for in-flight migrations, drains and closes
// every shard hub, and closes the fan-in Alarms channel. Close is
// idempotent. A wedged home blocks Close forever; use CloseWithin to bound
// the drain.
func (f *Fleet) Close() error { return f.CloseWithin(0) }

// CloseWithin is Close with a drain deadline: when in-flight migrations and
// the shard drains do not finish within d, CloseWithin abandons the wait
// and returns ErrDrainTimeout. Intake is stopped either way; the Alarms
// channel is only closed once the abandoned drain eventually completes in
// the background (it may never, behind a wedged home). d <= 0 waits
// forever.
func (f *Fleet) CloseWithin(d time.Duration) error {
	// Flip the flag under migMu so no migration can slip its increment in
	// between the check below and this close's wait.
	f.migMu.Lock()
	if f.closed.Swap(true) {
		f.migMu.Unlock()
		return nil // already closing; only the first close reports drain errors
	}
	f.migMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A migration wedged on a stuck home holds this up — that is what
		// the deadline below is for.
		f.migMu.Lock()
		for f.migActive > 0 {
			f.migCond.Wait()
		}
		f.migMu.Unlock()
		f.mu.RLock()
		shards := make([]Shard, 0, len(f.shards))
		for _, s := range f.shards {
			shards = append(shards, s)
		}
		f.mu.RUnlock()
		var wg sync.WaitGroup
		var errMu sync.Mutex
		for _, s := range shards {
			wg.Add(1)
			go func(h Shard) {
				defer wg.Done()
				if err := h.Close(); err != nil {
					errMu.Lock()
					if f.closeErr == nil {
						f.closeErr = err
					}
					errMu.Unlock()
				}
			}(s)
		}
		wg.Wait()
		// Every shard's workers have exited: no further alarm deliveries.
		close(f.alarms)
	}()
	if d <= 0 {
		<-done
		return f.closeErr
	}
	select {
	case <-done:
		return f.closeErr
	case <-time.After(d):
		return ErrDrainTimeout
	}
}
