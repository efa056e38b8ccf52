package causaliot

import (
	"bytes"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/cluster"
	"github.com/causaliot/causaliot/internal/wire"
)

// ErrShardUnavailable marks an operation that needed a remote shard whose
// link is down, gave up reconnecting, or timed out mid-operation. Event
// submission does not return it — submissions bank in the link window and
// replay on resume — but control operations (migration, export, swap) do:
// they need a live link and the caller decides whether to retry.
var ErrShardUnavailable = errors.New("causaliot: remote shard unavailable")

// ClusterWorkerConfig tunes one shard worker process.
type ClusterWorkerConfig struct {
	// Hub configures the worker's serving hub. The worker needs no training
	// data: every tenant arrives as a checkpoint envelope over the wire.
	Hub HubConfig
	// Token, when non-empty, must match the router's ShardHello token.
	Token string
	// MaxFrame caps accepted frame sizes; 0 selects the wire default.
	MaxFrame int
	// IdleTimeout evicts a router link that delivers no frame for this
	// long; WriteTimeout bounds socket writes; AckEvery is the cumulative
	// ack cadence; AlarmRing caps the per-tenant unconfirmed-alarm replay
	// ring. Zero selects the cluster defaults.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	AckEvery     int
	AlarmRing    int
	// Logf receives operational log lines; nil uses the standard logger.
	Logf func(format string, args ...any)
}

// ClusterWorker is one multi-process shard: a serving hub fronted by the
// cluster wire protocol. A router process (NewCluster / Fleet.AddRemoteShard)
// registers tenants onto it by streaming checkpoint envelopes, submits their
// events with exactly-once admission, and receives their alarms back — so a
// worker process starts from nothing but a listen address and a token.
type ClusterWorker struct {
	hub    *Hub
	worker *cluster.Worker
}

// NewClusterWorker builds a shard worker; call Serve with a listener to
// start accepting router links.
func NewClusterWorker(cfg ClusterWorkerConfig) (*ClusterWorker, error) {
	h := NewHub(cfg.Hub)
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Backend:      &shardHubBackend{h: h, token: cfg.Token},
		Classify:     classifyWireError,
		MaxFrame:     cfg.MaxFrame,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
		AckEvery:     cfg.AckEvery,
		AlarmRing:    cfg.AlarmRing,
		Logf:         logf,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	return &ClusterWorker{hub: h, worker: w}, nil
}

// Serve accepts router links on ln until the listener fails or the worker
// is closed; a clean Close returns nil.
func (w *ClusterWorker) Serve(ln net.Listener) error { return w.worker.Serve(ln) }

// Hub exposes the worker's serving hub, e.g. for local stats.
func (w *ClusterWorker) Hub() *Hub { return w.hub }

// StatsJSON reports the worker's protocol counters with the hub's serving
// stats embedded — the same document a router's ShardStats request fetches.
func (w *ClusterWorker) StatsJSON() ([]byte, error) {
	st := w.worker.Stats()
	doc, err := json.Marshal(w.hub.Stats())
	if err != nil {
		return nil, err
	}
	st.Backend = doc
	return json.Marshal(st)
}

// Close stops accepting router links and drains and closes the hub; every
// hosted tenant's queued events are processed first. Idempotent.
func (w *ClusterWorker) Close() error { return w.CloseWithin(0) }

// CloseWithin is Close with a drain deadline (see Hub.CloseWithin).
func (w *ClusterWorker) CloseWithin(d time.Duration) error {
	w.worker.Close()
	return w.hub.CloseWithin(d)
}

// shardHubBackend adapts a *Hub to the cluster worker's Backend surface.
type shardHubBackend struct {
	h     *Hub
	token string
}

func (b *shardHubBackend) Authenticate(token string) error { return checkToken(b.token, token) }

// Register hosts a tenant from the router's envelope. The policy byte is
// input from outside the process: the hub reads any value but Block,
// DropOldest and Reject as its configured default.
func (b *shardHubBackend) Register(tenant string, model, state []byte, queue int, policy uint8) error {
	return b.h.ImportEnvelope(tenant, model, state, TenantOptions{QueueSize: queue, Backpressure: BackpressurePolicy(policy)})
}

func (b *shardHubBackend) Swap(tenant string, model []byte) error {
	sys, err := Load(bytes.NewReader(model))
	if err != nil {
		return fmt.Errorf("causaliot: cluster swap %q: %w", tenant, err)
	}
	return b.h.Swap(tenant, sys)
}

func (b *shardHubBackend) Deregister(tenant string) error { return b.h.Deregister(tenant) }

func (b *shardHubBackend) SubmitBatch(tenant string, evs []wire.Event) (int, error) {
	return b.h.inner.SubmitBatch(tenant, evs)
}

func (b *shardHubBackend) RouteAlarms(tenant string, sink func(wire.Alarm)) error {
	if sink == nil {
		return b.h.SetAlarmRoute(tenant, nil)
	}
	return b.h.SetAlarmRoute(tenant, func(ta TenantAlarm) { sink(*ta.Alarm) })
}

func (b *shardHubBackend) Quiesce(tenant string) error { return b.h.Quiesce(tenant) }

func (b *shardHubBackend) Export(tenant string) (model, state []byte, err error) {
	return b.h.ExportEnvelope(tenant)
}

func (b *shardHubBackend) Flush(tenant string) error { return b.h.Flush(tenant) }

func (b *shardHubBackend) Drain(d time.Duration) error {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for _, ts := range b.h.Stats().Tenants {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		if err := b.h.Quiesce(ts.Tenant); err != nil && !errors.Is(err, ErrUnknownTenant) {
			return err
		}
	}
	return nil
}

func (b *shardHubBackend) StatsJSON() ([]byte, error) { return json.Marshal(b.h.Stats()) }

// RemoteShardConfig names one shard worker a router attaches to.
type RemoteShardConfig struct {
	// Addr is the worker's listen address. Required.
	Addr string
	// Token is presented on the shard link; must match the worker's.
	Token string
	// TLS, when non-nil, dials the worker over TLS with this config.
	TLS *tls.Config
	// MaxFrame caps frame sizes; Window the per-tenant unacknowledged-event
	// ring (full window blocks or rejects per the tenant's backpressure
	// policy). Zero selects the cluster defaults.
	MaxFrame int
	Window   int
	// DialTimeout bounds each dial+handshake; ControlTimeout each control
	// op's reply; KeepAlive the idle ping cadence. Zero selects defaults.
	DialTimeout    time.Duration
	ControlTimeout time.Duration
	KeepAlive      time.Duration
	// MaxAttempts bounds consecutive failed reconnects before the link
	// gives up; BackoffMin/BackoffMax bound the reconnect backoff. Zero
	// selects defaults.
	MaxAttempts int
	BackoffMin  time.Duration
	BackoffMax  time.Duration
	// Logf receives operational log lines; nil uses the standard logger.
	Logf func(format string, args ...any)
}

// remoteShard adapts a cluster proxy to the fleet's Shard surface. The
// conversion layer keeps the facade's error sentinels intact across the
// process boundary: a worker-side refusal comes back as the same errors.Is-
// matchable sentinel a local hub would have returned.
type remoteShard struct {
	addr  string
	p     *cluster.Proxy
	nacks atomic.Uint64

	mu    sync.Mutex
	sinks map[string]func(string, *Alarm, float64)

	// statsMu guards the last successfully fetched worker stats snapshot,
	// served when the link (or the whole proxy) cannot be asked.
	statsMu   sync.Mutex
	lastStats HubStats
}

func openRemoteShard(cfg RemoteShardConfig) (*remoteShard, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	rs := &remoteShard{addr: cfg.Addr, sinks: make(map[string]func(string, *Alarm, float64))}
	p, err := cluster.Open(cluster.ProxyConfig{
		Addr:           cfg.Addr,
		Token:          cfg.Token,
		Router:         "fleet",
		TLS:            cfg.TLS,
		MaxFrame:       cfg.MaxFrame,
		Window:         cfg.Window,
		DialTimeout:    cfg.DialTimeout,
		ControlTimeout: cfg.ControlTimeout,
		KeepAlive:      cfg.KeepAlive,
		MaxAttempts:    cfg.MaxAttempts,
		BackoffMin:     cfg.BackoffMin,
		BackoffMax:     cfg.BackoffMax,
		JitterSeed:     1,
		OnNack: func(n wire.ShardNack) {
			// Worker-side refusals arrive asynchronously: by the time the
			// refusal comes back the submission already succeeded at the
			// router, so it cannot be re-surfaced to that caller. Count and
			// log instead; transport backpressure (full link window) stays
			// synchronous at Submit.
			if rs.nacks.Add(1) == 1 {
				logf("causaliot: shard %s refused event for %q: %s (first refusal — later ones only counted)", cfg.Addr, n.Tenant, n.Code)
			}
		},
		Logf: logf,
	})
	if err != nil {
		return nil, err
	}
	rs.p = p
	return rs, nil
}

// clusterFacadeError maps a cluster-layer error onto the facade's serving
// sentinels, so fleet code handles local and remote failures identically.
func clusterFacadeError(err error) error {
	if err == nil {
		return nil
	}
	var se wire.ShardErr
	if errors.As(err, &se) {
		if s := sentinelForWireCode(se.Code); s != nil {
			return fmt.Errorf("%w: shard %s %q: %s", s, se.Op, se.Tenant, se.Detail)
		}
		return err
	}
	var sn wire.ShardNack
	if errors.As(err, &sn) {
		if s := sentinelForWireCode(sn.Code); s != nil {
			return fmt.Errorf("%w: shard refused %q event", s, sn.Tenant)
		}
		return err
	}
	switch {
	case errors.Is(err, cluster.ErrUnknownTenant):
		return fmt.Errorf("%w: %w", ErrUnknownTenant, err)
	case errors.Is(err, cluster.ErrProxyClosed):
		return fmt.Errorf("%w: %w", ErrHubClosed, err)
	case errors.Is(err, cluster.ErrLinkDown),
		errors.Is(err, cluster.ErrLinkGaveUp),
		errors.Is(err, cluster.ErrControlTimeout):
		return fmt.Errorf("%w: %w", ErrShardUnavailable, err)
	}
	return err
}

// sentinelForWireCode maps a wire refusal code to the facade sentinel a
// local hub would have returned; nil for codes with no sentinel (internal,
// protocol), where the transported detail is the best information.
func sentinelForWireCode(code wire.Code) error {
	switch code {
	case wire.CodeBackpressure:
		return ErrBackpressure
	case wire.CodeQuarantined:
		return ErrQuarantined
	case wire.CodeUnknownDevice:
		return ErrUnknownDevice
	case wire.CodeValueOutOfRange:
		return ErrValueOutOfRange
	case wire.CodeUnknownTenant:
		return ErrUnknownTenant
	case wire.CodeBadAuth:
		return ErrBadAuth
	case wire.CodeClosed:
		return ErrHubClosed
	default:
		return nil
	}
}

// wireSink adapts one tenant's OnAlarm to the proxy's alarm callback: the
// decoded alarm is handed on as it is. A nil onAlarm registers no sink.
func (s *remoteShard) wireSink(tenant string, onAlarm func(string, *Alarm, float64)) func(wire.Alarm) {
	if onAlarm == nil {
		return nil
	}
	s.mu.Lock()
	s.sinks[tenant] = onAlarm
	s.mu.Unlock()
	return func(wa wire.Alarm) {
		s.mu.Lock()
		cur := s.sinks[tenant]
		s.mu.Unlock()
		if cur != nil {
			cur(tenant, &wa, wa.Score)
		}
	}
}

func (s *remoteShard) register(tenant string, model, state []byte, opts TenantOptions) error {
	reject := opts.Backpressure == BackpressureReject
	err := s.p.Register(tenant, model, state, uint32(opts.QueueSize), uint8(opts.Backpressure), reject, s.wireSink(tenant, opts.OnAlarm))
	if err != nil {
		s.mu.Lock()
		delete(s.sinks, tenant)
		s.mu.Unlock()
		return clusterFacadeError(err)
	}
	return nil
}

func (s *remoteShard) RegisterMonitor(tenant string, mon *Monitor, opts TenantOptions) error {
	// A monitor cannot cross a process boundary live: serialize it through
	// the checkpoint envelope, ship both halves, and retire the local copy.
	var model, state bytes.Buffer
	if err := mon.Export(ExportOptions{Model: &model, State: &state}); err != nil {
		return err
	}
	if err := s.register(tenant, model.Bytes(), state.Bytes(), opts); err != nil {
		return err
	}
	mon.Close()
	return nil
}

func (s *remoteShard) ImportEnvelope(tenant string, model, state []byte, opts TenantOptions) error {
	return s.register(tenant, model, state, opts)
}

func (s *remoteShard) ExportEnvelope(tenant string) ([]byte, []byte, error) {
	model, state, err := s.p.Export(tenant)
	if err != nil {
		return nil, nil, clusterFacadeError(err)
	}
	return model, state, nil
}

func (s *remoteShard) Quiesce(tenant string) error {
	return clusterFacadeError(s.p.Quiesce(tenant))
}

func (s *remoteShard) Deregister(tenant string) error {
	err := s.p.Deregister(tenant)
	if err == nil || errors.Is(err, cluster.ErrUnknownTenant) {
		s.mu.Lock()
		delete(s.sinks, tenant)
		s.mu.Unlock()
	}
	return clusterFacadeError(err)
}

func (s *remoteShard) Submit(tenant string, ev Event) error {
	return clusterFacadeError(s.p.Submit(tenant, ev))
}

func (s *remoteShard) Swap(tenant string, sys *System) error {
	var model bytes.Buffer
	if err := sys.Save(&model); err != nil {
		return err
	}
	return clusterFacadeError(s.p.Swap(tenant, model.Bytes()))
}

func (s *remoteShard) Export(tenant string, opts ExportOptions) error {
	if opts.Model == nil && opts.State == nil {
		return errors.New("causaliot: export with no destination")
	}
	model, state, err := s.ExportEnvelope(tenant)
	if err != nil {
		return err
	}
	if opts.Model != nil {
		if _, err := opts.Model.Write(model); err != nil {
			return err
		}
	}
	if opts.State != nil {
		if _, err := opts.State.Write(state); err != nil {
			return err
		}
	}
	return nil
}

func (s *remoteShard) Flush(tenant string) error {
	return clusterFacadeError(s.p.Flush(tenant))
}

// workerHubStats fetches and parses the worker's embedded hub stats.
func (s *remoteShard) workerHubStats() (HubStats, error) {
	doc, err := s.p.StatsDoc()
	if err != nil {
		return HubStats{}, clusterFacadeError(err)
	}
	var ws struct {
		Backend json.RawMessage `json:"backend"`
	}
	if err := json.Unmarshal(doc, &ws); err != nil {
		return HubStats{}, err
	}
	var hs HubStats
	if len(ws.Backend) > 0 {
		if err := json.Unmarshal(ws.Backend, &hs); err != nil {
			return HubStats{}, err
		}
	}
	s.statsMu.Lock()
	s.lastStats = hs
	s.statsMu.Unlock()
	return hs, nil
}

func (s *remoteShard) TenantStats(tenant string) (TenantStats, error) {
	hs, err := s.workerHubStats()
	if err != nil {
		return TenantStats{}, err
	}
	for _, ts := range hs.Tenants {
		if ts.Tenant == tenant {
			return ts, nil
		}
	}
	return TenantStats{}, fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
}

// Stats reports the remote hub's serving stats. While the link is down (or
// after Close) the worker keeps serving but cannot be asked; the last
// successfully fetched snapshot is served instead of an error, so
// fleet-wide aggregation — including the post-shutdown report — keeps
// working.
func (s *remoteShard) Stats() HubStats {
	hs, err := s.workerHubStats()
	if err != nil {
		s.statsMu.Lock()
		hs = s.lastStats
		s.statsMu.Unlock()
	}
	return hs
}

// LifecycleStats is empty for a remote shard: lifecycle counters live in
// the worker process and are not shipped over the stats document.
func (s *remoteShard) LifecycleStats() map[string]LifecycleStats { return nil }

func (s *remoteShard) Health() ShardHealth {
	ps := s.p.Stats()
	return ShardHealth{
		Remote:           true,
		Addr:             s.addr,
		Link:             ps.State.String(),
		Reconnects:       ps.Reconnects,
		Resumes:          ps.Resumes,
		Retransmits:      ps.Retransmits,
		PendingEvents:    ps.Pending,
		EnvelopeBytesIn:  ps.EnvelopeBytesIn,
		EnvelopeBytesOut: ps.EnvelopeBytesOut,
	}
}

// Close detaches the router from the worker; the worker process and its
// tenants keep serving (its own shutdown drains them). A bounded drain is
// requested best-effort so queued events land before the link drops.
func (s *remoteShard) Close() error { return s.CloseWithin(0) }

func (s *remoteShard) CloseWithin(d time.Duration) error {
	if d <= 0 {
		d = 30 * time.Second
	}
	_ = s.p.Drain(d) // best-effort: the worker survives us either way
	// Refresh the cached stats snapshot post-drain so a report read after
	// Close reflects the fully drained counters.
	_, _ = s.workerHubStats()
	return s.p.Close()
}

// AddRemoteShard attaches a shard worker process to the fleet and
// rebalances onto it: the worker becomes a placement target like any local
// shard, serving the tenants the ring assigns it, reached over the cluster
// wire protocol with exactly-once event admission and automatic
// reconnect-with-resume. Returns the new shard's id.
func (f *Fleet) AddRemoteShard(cfg RemoteShardConfig) (int, error) {
	if cfg.Addr == "" {
		return 0, errors.New("causaliot: remote shard with empty address")
	}
	rs, err := openRemoteShard(cfg)
	if err != nil {
		return 0, clusterFacadeError(err)
	}
	id, err := f.AddShardFor(rs)
	if err != nil {
		rs.p.Close()
		return 0, err
	}
	return id, nil
}

// ClusterConfig assembles a router over remote shard workers.
type ClusterConfig struct {
	// Workers are the shard worker processes to attach. At least one.
	Workers []RemoteShardConfig
	// Replicas is the consistent-hash ring's virtual-node count per shard.
	Replicas int
	// Hub supplies router-side defaults: AlarmBuffer sizes the fan-in
	// channel, QueueSize and Backpressure the migration gap buffers.
	Hub HubConfig
}

// NewCluster builds a fleet whose shards are all remote worker processes: a
// router. The router holds no monitors — registration serializes each
// tenant's model and state over the wire — so it stays lightweight while
// workers carry the serving load. The returned Fleet has the full Host and
// migration surface: Migrate moves tenants between worker processes through
// the same quiesce → envelope → restore → gap-replay handoff in-process
// migration uses.
func NewCluster(cfg ClusterConfig) (*Fleet, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("causaliot: cluster with no workers")
	}
	f := newFleet(FleetConfig{Replicas: cfg.Replicas, Hub: cfg.Hub}, 0)
	for _, w := range cfg.Workers {
		if _, err := f.AddRemoteShard(w); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("causaliot: attaching shard %s: %w", w.Addr, err)
		}
	}
	return f, nil
}
