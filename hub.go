package causaliot

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/hub"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// BackpressurePolicy selects what Hub.Submit does when a home's ingestion
// queue is full. Any value other than the three named policies — a policy
// byte off the cluster wire, say — inherits the hub's configured policy, as
// BackpressureDefault does.
type BackpressurePolicy = hub.Policy

const (
	// BackpressureDefault inherits the hub's configured policy
	// (BackpressureBlock unless the hub was configured otherwise).
	BackpressureDefault = hub.DefaultPolicy
	// BackpressureBlock makes Submit wait for queue space — lossless, but
	// a slow home stalls its producers.
	BackpressureBlock = hub.Block
	// BackpressureDropOldest evicts the oldest queued event to admit the
	// new one — bounded staleness, lossy under sustained overload.
	BackpressureDropOldest = hub.DropOldest
	// BackpressureReject fails Submit with ErrBackpressure — the producer
	// decides, nothing silently lost or stalled.
	BackpressureReject = hub.Reject
)

// Hub serving errors. ErrBackpressure marks a Submit refused by a
// BackpressureReject queue; ErrUnknownTenant an operation on an
// unregistered home; ErrDuplicateTenant a registration under a name already
// hosted; ErrHubClosed an operation on a closed hub; ErrQuarantined a
// Submit refused by a home's tripped circuit breaker; ErrProcessorPanic
// wraps a panic recovered from a home's event processing (counted as a
// failure, the stream continues); ErrDrainTimeout a CloseWithin drain that
// exceeded its deadline. All are errors.Is-matchable through any facade
// wrapping; the internal hub/fleet packages never leak their own sentinel
// identities past these aliases.
var (
	ErrBackpressure    = hub.ErrBackpressure
	ErrUnknownTenant   = hub.ErrUnknownTenant
	ErrDuplicateTenant = hub.ErrDuplicateTenant
	ErrHubClosed       = hub.ErrClosed
	ErrQuarantined     = hub.ErrQuarantined
	ErrProcessorPanic  = hub.ErrPanic
	ErrDrainTimeout    = hub.ErrDrainTimeout
)

// HealthState is a home's circuit-breaker state, reported in TenantStats.
type HealthState = hub.Health

const (
	// HealthHealthy is the normal serving state.
	HealthHealthy = hub.Healthy
	// HealthQuarantined marks a tripped circuit breaker: the home's
	// submissions are refused with ErrQuarantined until the readmission
	// backoff elapses.
	HealthQuarantined = hub.Quarantined
	// HealthProbing marks a quarantined home whose backoff elapsed and
	// whose next event was admitted as a readmission probe.
	HealthProbing = hub.Probing
)

// HubConfig tunes a serving hub. The zero value selects the defaults.
type HubConfig struct {
	// Workers sizes the shared worker pool. Defaults to GOMAXPROCS.
	Workers int
	// QueueSize is the default per-home ingestion queue capacity.
	// Defaults to 1024 events.
	QueueSize int
	// Backpressure is the default policy for full queues. Defaults to
	// BackpressureBlock.
	Backpressure BackpressurePolicy
	// AlarmBuffer sizes the Alarms channel. When the channel is full,
	// further alarms are dropped and counted in HubStats.AlarmsDropped
	// rather than stalling detection. Defaults to 256.
	AlarmBuffer int
	// QuarantineAfter is the consecutive-failure count (per-event errors
	// and recovered panics) that trips a home's circuit breaker: its queue
	// is flushed and submissions fail with ErrQuarantined until the
	// readmission backoff elapses. Defaults to 8; negative disables
	// quarantine.
	QuarantineAfter int
	// QuarantineBackoff is the initial readmission backoff; each failed
	// readmission probe doubles it. Defaults to 1s.
	QuarantineBackoff time.Duration
	// QuarantineMaxBackoff caps the exponential backoff. Defaults to 60s.
	QuarantineMaxBackoff time.Duration
	// GroupBatch caps how many homes serving the same model (by content
	// fingerprint) one worker drains back-to-back, so their batches stream
	// the shared compiled score tables while cache-hot. Grouping never
	// changes results — each home's stream is processed exactly as
	// ungrouped. Defaults to 8; negative disables grouping.
	GroupBatch int
}

// TenantOptions tunes one registered home; zero values inherit the hub
// defaults. A home on a remote shard (Fleet.AddRemoteShard, NewCluster)
// ignores OnError and Adapt: only QueueSize and Backpressure reach the
// worker.
type TenantOptions struct {
	// QueueSize overrides the hub's ingestion queue capacity.
	QueueSize int
	// Backpressure overrides the hub's backpressure policy.
	Backpressure BackpressurePolicy
	// OnAlarm, when set, receives the home's alarms instead of the hub's
	// Alarms channel. It is called from a worker goroutine, serialized
	// with the home's stream — return quickly or hand off.
	OnAlarm func(tenant string, alarm *Alarm, score float64)
	// OnError receives per-event errors (e.g. ErrUnknownDevice for a
	// report from an unregistered device). Erroring events are counted,
	// skipped, and the stream continues.
	OnError func(tenant string, ev Event, err error)
	// Adapt, when non-nil, enables the online model lifecycle for this
	// home (see Monitor.EnableAdaptive): drift is detected on the live
	// stream and the hub re-estimates and hot-swaps the model in the
	// background. Ignored when the registered monitor already has adaptive
	// mode enabled (e.g. restored from an adaptive checkpoint).
	Adapt *AdaptConfig
}

// TenantAlarm is one alarm raised by a hosted home, as delivered on the
// hub's Alarms channel. The embedded alarm is never nil; its Seq and Score
// cite the event that completed the chain (Seq is zero when the producer
// does not assign sequence numbers, both are zero for an operator Flush).
type TenantAlarm struct {
	Tenant string
	*Alarm
}

// TenantStats is one home's runtime counters. A Hub's Total merges every
// home's latency window; a Fleet's Total takes the largest of its shards'
// P50 and P99.
type TenantStats = hub.TenantStats

// HubStats is a point-in-time snapshot of the hub's counters.
type HubStats struct {
	// Tenants holds one entry per hosted home, sorted by name.
	Tenants []TenantStats
	// Total aggregates every home.
	Total TenantStats
	// AlarmsDropped counts alarms discarded because the Alarms channel
	// was full.
	AlarmsDropped uint64
	Workers       int
	// GroupedDrains counts homes drained as same-model group followers by
	// the scheduler's model-grouping pass (see HubConfig.GroupBatch).
	GroupedDrains uint64
}

// Hub serves many independent homes concurrently: each registered home gets
// its own Monitor behind a bounded ingestion queue, and a shared worker
// pool validates the queued events — one home's events stay strictly
// ordered, different homes run in parallel. All methods are safe for
// concurrent use.
type Hub struct {
	inner         *hub.Hub
	alarms        chan TenantAlarm
	alarmsDropped atomic.Uint64
	closed        atomic.Bool
	// dropLogged records which tenants already logged an alarm drop, so a
	// sustained overflow produces one log line per home, not a flood.
	dropLogged sync.Map
	// procs tracks the hosted processors for lifecycle introspection
	// (LifecycleStats) without going through a stream-pausing Update.
	procMu sync.Mutex
	procs  map[string]*tenantProc
	// refreshWG tracks in-flight background refresh goroutines
	// (refreshAsync): CloseWithin must not close the monitors while one is
	// still mid-Swap.
	refreshWG sync.WaitGroup
}

// NewHub starts a serving hub and its worker pool. Close it to drain and
// stop.
func NewHub(cfg HubConfig) *Hub {
	buffer := cfg.AlarmBuffer
	if buffer <= 0 {
		buffer = 256
	}
	return &Hub{
		procs: make(map[string]*tenantProc),
		inner: hub.New(hub.Config{
			Workers:              cfg.Workers,
			QueueSize:            cfg.QueueSize,
			Policy:               cfg.Backpressure,
			QuarantineAfter:      cfg.QuarantineAfter,
			QuarantineBackoff:    cfg.QuarantineBackoff,
			QuarantineMaxBackoff: cfg.QuarantineMaxBackoff,
			GroupBatch:           cfg.GroupBatch,
		}),
		alarms: make(chan TenantAlarm, buffer),
	}
}

// Alarms returns the channel on which homes without an OnAlarm callback
// deliver their alarms. Consume it promptly: when the buffer is full,
// alarms are dropped (and counted) rather than stalling detection. The
// channel is closed by Hub.Close after the final drain.
func (h *Hub) Alarms() <-chan TenantAlarm { return h.alarms }

// tenantProc adapts one home's Monitor to the hub's Processor contract and
// routes its alarms. The hub serializes Handle per tenant, so the monitor
// needs no locking; route is only touched on the stream thread (Handle, or
// a callback under a stream-pausing Update).
type tenantProc struct {
	hub     *Hub
	name    string
	mon     *Monitor
	onAlarm func(string, *Alarm, float64)
	// route, when set (SetAlarmRoute), receives the home's alarms ahead of
	// both onAlarm and the Alarms channel.
	route func(TenantAlarm)
}

// ModelKey names the model this home scores against for the hub's
// same-model scheduling groups: the folded content fingerprint of the
// served system. Two homes with equal keys serve bit-identical compiled
// tables, so draining them consecutively is a pure locality win.
func (p *tenantProc) ModelKey() uint64 { return p.mon.sys.fp.Key64() }

func (p *tenantProc) Handle(ev hub.Event) (bool, error) {
	det, err := p.mon.ObserveEvent(ev)
	if err != nil {
		return false, err
	}
	if det.Alarm != nil {
		p.deliver(det.Alarm)
	}
	// A drift scan on this event may have parked a refresh verdict; claim
	// it here (on the stream thread, so exactly one claimer wins) and hand
	// the re-estimation to a background goroutine. The stream keeps flowing
	// against the old model until the swap lands atomically between events.
	if kind := p.mon.TakeDriftSignal(); kind != RefreshNone {
		p.hub.refreshAsync(p, kind)
	}
	return det.Alarm != nil, nil
}

func (p *tenantProc) deliver(alarm *Alarm) {
	ta := TenantAlarm{Tenant: p.name, Alarm: alarm}
	if p.route != nil {
		p.route(ta)
		return
	}
	if p.onAlarm != nil {
		p.onAlarm(p.name, alarm, alarm.Score)
		return
	}
	select {
	case p.hub.alarms <- ta:
	default:
		p.hub.noteAlarmDropped(p.name)
	}
}

// noteAlarmDropped counts one alarm discarded off a full Alarms channel and
// logs the first drop per home — a dropped alarm must leave an operator-
// visible trace, never vanish into a counter nobody reads.
func (h *Hub) noteAlarmDropped(tenant string) {
	h.alarmsDropped.Add(1)
	if _, logged := h.dropLogged.LoadOrStore(tenant, struct{}{}); !logged {
		log.Printf("causaliot: alarms channel full; dropping alarms for home %q (first drop — consume Alarms faster or raise AlarmBuffer)", tenant)
	}
}

// SetAlarmRoute directs a home's alarms to sink, taking precedence over
// both the home's OnAlarm callback and the Alarms channel; a nil sink
// restores the previous delivery. The sink runs on the home's stream
// thread, serialized with its events — return quickly or hand off. The
// change lands atomically between events.
func (h *Hub) SetAlarmRoute(tenant string, sink func(TenantAlarm)) error {
	return h.inner.Update(tenant, func(p hub.Processor) (hub.Processor, error) {
		tp, ok := p.(*tenantProc)
		if !ok {
			return nil, fmt.Errorf("causaliot: tenant %q hosts a foreign processor", tenant)
		}
		tp.route = sink
		return tp, nil
	})
}

// Register hosts a home on the hub: a fresh Monitor is started from the
// trained system and fed the home's submitted events in order.
func (h *Hub) Register(tenant string, sys *System, opts TenantOptions) error {
	if sys == nil {
		return errors.New("causaliot: register with nil system")
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		return err
	}
	if err := h.RegisterMonitor(tenant, mon, opts); err != nil {
		mon.Close()
		return err
	}
	return nil
}

// RegisterMonitor hosts a home on an existing monitor — typically one
// restored from a checkpoint (System.RestoreMonitor), so a restarted serving
// process resumes every home's stream exactly where its checkpoint cut it.
// The hub takes ownership of the monitor: do not call its methods directly
// afterwards.
func (h *Hub) RegisterMonitor(tenant string, mon *Monitor, opts TenantOptions) error {
	if mon == nil {
		return errors.New("causaliot: register with nil monitor")
	}
	if opts.Adapt != nil && !mon.Adaptive() {
		if err := mon.EnableAdaptive(*opts.Adapt); err != nil {
			return err
		}
	}
	proc := &tenantProc{hub: h, name: tenant, mon: mon, onAlarm: opts.OnAlarm}
	var onError func(hub.Event, error)
	if opts.OnError != nil {
		cb := opts.OnError
		onError = func(ev hub.Event, err error) {
			cb(tenant, ev, err)
		}
	}
	err := h.inner.Register(tenant, proc, hub.TenantConfig{
		QueueSize: opts.QueueSize,
		Policy:    opts.Backpressure,
		OnError:   onError,
	})
	if err != nil {
		return err
	}
	h.procMu.Lock()
	h.procs[tenant] = proc
	h.procMu.Unlock()
	return nil
}

// Deregister removes a home, discarding its queued events and releasing any
// producers blocked on its queue. The home's monitor is closed, dropping its
// reference on the shared compiled-model cache.
func (h *Hub) Deregister(tenant string) error {
	err := h.inner.Deregister(tenant)
	if err == nil {
		h.procMu.Lock()
		p := h.procs[tenant]
		delete(h.procs, tenant)
		h.procMu.Unlock()
		if p != nil {
			p.mon.Close()
		}
	}
	return err
}

// refreshAsync runs one background refresh cycle for a home whose drift
// verdict was just claimed: snapshot the refit log with the stream paused,
// re-estimate off-thread against the snapshot, then hot-swap through the
// hub so no event is dropped or scored against a half-swapped model.
func (h *Hub) refreshAsync(p *tenantProc, kind RefreshKind) {
	h.refreshWG.Add(1)
	go func() {
		defer h.refreshWG.Done()
		var (
			base  timeseries.State
			steps []timeseries.Step
			sys   *System
		)
		err := h.inner.Update(p.name, func(proc hub.Processor) (hub.Processor, error) {
			base, steps = p.mon.lc.snapshotLog()
			sys = p.mon.sys
			return proc, nil
		})
		if err != nil {
			p.mon.FinishRefresh(err)
			return
		}
		fresh, err := sys.RefreshFrom(kind, base, steps)
		if err != nil {
			p.mon.FinishRefresh(err)
			return
		}
		if err := h.Swap(p.name, fresh); err != nil {
			p.mon.FinishRefresh(err)
			return
		}
		p.mon.lc.noteRefreshed(kind)
		p.mon.FinishRefresh(nil)
	}()
}

// LifecycleStats snapshots the lifecycle counters of every hosted home with
// adaptive mode enabled, keyed by tenant name, without pausing any stream.
func (h *Hub) LifecycleStats() map[string]LifecycleStats {
	h.procMu.Lock()
	procs := make([]*tenantProc, 0, len(h.procs))
	for _, p := range h.procs {
		procs = append(procs, p)
	}
	h.procMu.Unlock()
	out := make(map[string]LifecycleStats)
	for _, p := range procs {
		if s, ok := p.mon.LifecycleStats(); ok {
			out[p.name] = s
		}
	}
	return out
}

// Export writes a home's serving artifacts — the served model, its runtime
// checkpoint, or both — under a single stream pause (see ExportOptions).
// Because the pause spans every selected artifact, the pair is guaranteed
// consistent even while a background refresh is racing to swap the model: a
// checkpoint restored onto the model it was exported with resumes
// bit-for-bit. The export lands on an exact event boundary, with no event
// half-processed; events submitted after the boundary are NOT part of it —
// a resumed process must replay its source log from the checkpoint's
// Observed position. Export is the one serialization path: crash-recovery
// checkpoints, operator snapshots, and live fleet migrations all go
// through it.
func (h *Hub) Export(tenant string, opts ExportOptions) error {
	if opts.Model == nil && opts.State == nil {
		return errors.New("causaliot: export with no destination")
	}
	return h.inner.Update(tenant, func(p hub.Processor) (hub.Processor, error) {
		tp, ok := p.(*tenantProc)
		if !ok {
			return nil, fmt.Errorf("causaliot: tenant %q hosts a foreign processor", tenant)
		}
		if err := tp.mon.Export(opts); err != nil {
			return nil, err
		}
		return tp, nil
	})
}

// Submit enqueues one event for a home. Under a full queue the home's
// backpressure policy decides: block, drop the oldest queued event, or fail
// with ErrBackpressure.
func (h *Hub) Submit(tenant string, ev Event) error {
	return h.inner.Submit(tenant, ev)
}

// Swap hot-swaps a home's model: the retrained (or Extend-ed and reloaded)
// system is adopted atomically between events, so the home's monitor keeps
// its phantom state window and any partially tracked k-sequence chain, and
// neither queued nor in-flight events are lost. The new system must cover
// the same device inventory.
func (h *Hub) Swap(tenant string, sys *System) error {
	if sys == nil {
		return errors.New("causaliot: swap to nil system")
	}
	return h.inner.Update(tenant, func(p hub.Processor) (hub.Processor, error) {
		tp, ok := p.(*tenantProc)
		if !ok {
			return nil, fmt.Errorf("causaliot: tenant %q hosts a foreign processor", tenant)
		}
		if err := tp.mon.Swap(sys); err != nil {
			return nil, err
		}
		return tp, nil
	})
}

// Flush reports a home's partially tracked anomaly chain (if any) through
// its alarm route, serialized with the home's stream.
func (h *Hub) Flush(tenant string) error {
	return h.inner.Update(tenant, func(p hub.Processor) (hub.Processor, error) {
		tp, ok := p.(*tenantProc)
		if !ok {
			return nil, fmt.Errorf("causaliot: tenant %q hosts a foreign processor", tenant)
		}
		if alarm := tp.mon.Flush(); alarm != nil {
			tp.deliver(alarm)
		}
		return tp, nil
	})
}

// Stats snapshots the hub's runtime counters.
func (h *Hub) Stats() HubStats {
	s := h.inner.Stats()
	return HubStats{
		Tenants:       s.Tenants,
		Total:         s.Total,
		AlarmsDropped: h.alarmsDropped.Load(),
		Workers:       s.Workers,
		GroupedDrains: s.Grouped,
	}
}

// TenantStats snapshots one home's runtime counters.
func (h *Hub) TenantStats(tenant string) (TenantStats, error) { return h.inner.TenantStats(tenant) }

// Quiesce blocks until every event accepted for the home so far is fully
// processed. The caller must hold off the home's producers meanwhile.
func (h *Hub) Quiesce(tenant string) error { return h.inner.Quiesce(tenant) }

// Health reports an in-process hub's shard health: always link "local".
func (h *Hub) Health() ShardHealth { return ShardHealth{Link: "local"} }

// ImportEnvelope hosts a home restored from a checkpoint envelope (see
// ExportEnvelope); a nil state starts a fresh monitor over the model alone.
// On a hub already serving the model's fingerprint the home shares its
// compiled tables.
func (h *Hub) ImportEnvelope(tenant string, model, state []byte, opts TenantOptions) error {
	sys, err := Load(bytes.NewReader(model))
	if err != nil {
		return fmt.Errorf("causaliot: import %q: %w", tenant, err)
	}
	var mon *Monitor
	if state == nil {
		mon, err = sys.NewMonitor()
	} else {
		mon, err = sys.RestoreMonitor(bytes.NewReader(state))
	}
	if err != nil {
		return fmt.Errorf("causaliot: import %q: %w", tenant, err)
	}
	if err := h.RegisterMonitor(tenant, mon, opts); err != nil {
		mon.Close()
		return err
	}
	return nil
}

// ExportEnvelope returns a home's checkpoint envelope: its served model and
// runtime state, exported under one stream pause (see Export).
func (h *Hub) ExportEnvelope(tenant string) (model, state []byte, err error) {
	var m, st bytes.Buffer
	if err := h.Export(tenant, ExportOptions{Model: &m, State: &st}); err != nil {
		return nil, nil, err
	}
	return m.Bytes(), st.Bytes(), nil
}

// Close stops intake, drains every queued event through its home's monitor,
// stops the workers, and closes the Alarms channel. Close is idempotent. A
// wedged monitor (e.g. a stuck OnAlarm callback) blocks Close forever; use
// CloseWithin to bound the drain.
func (h *Hub) Close() error { return h.CloseWithin(0) }

// CloseWithin is Close with a drain deadline: when the drain does not finish
// within d, it is abandoned and ErrDrainTimeout returned. Intake is stopped
// either way, but events queued behind a wedged home may be lost, and the
// Alarms channel is left open (a late worker may still deliver into it);
// d <= 0 waits forever.
func (h *Hub) CloseWithin(d time.Duration) error {
	if h.closed.Swap(true) {
		return nil
	}
	err := h.inner.CloseWithin(d)
	if errors.Is(err, ErrDrainTimeout) {
		// The abandoned drain may still be running: closing the Alarms
		// channel now could panic a late delivery, so leave it open (and
		// leave the monitors' model-cache references in place — a late
		// worker may still be scoring against them).
		return err
	}
	close(h.alarms)
	// A background refresh claimed before the drain finished may still be
	// mid-Swap on its own goroutine; wait it out (its Update against the
	// now-closed inner hub fails fast) before touching the monitors —
	// Close racing Swap is a data race on the monitor's model reference.
	h.refreshWG.Wait()
	// Release every hosted monitor's model-cache reference. The procs map
	// stays intact so post-close Stats/LifecycleStats remain readable
	// (Monitor.Close does not invalidate reads).
	h.procMu.Lock()
	procs := make([]*tenantProc, 0, len(h.procs))
	for _, p := range h.procs {
		procs = append(procs, p)
	}
	h.procMu.Unlock()
	for _, p := range procs {
		p.mon.Close()
	}
	return err
}
