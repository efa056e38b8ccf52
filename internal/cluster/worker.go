package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// Backend is the serving side a Worker fronts — in production the facade's
// hub adapter; tests plug fakes. Registration always ships the model over
// the wire, so a worker process needs no training data of its own.
type Backend interface {
	// Authenticate validates a router link's ShardHello token.
	Authenticate(token string) error
	// Register creates a tenant from a checkpoint envelope. state is nil
	// for a fresh registration (model only) and non-nil for a restore
	// that resumes mid-stream detector state.
	Register(tenant string, model, state []byte, queue int, policy uint8) error
	// Swap hot-swaps the model under a running tenant.
	Swap(tenant string, model []byte) error
	// Deregister removes a tenant.
	Deregister(tenant string) error
	// SubmitBatch enqueues evs in order, stopping at the first refusal:
	// it returns how many events were admitted and, when that is fewer
	// than len(evs), the error refusing evs[admitted]. The events after it
	// are not attempted. Errors are classified into ShardNack codes; they
	// never stop the link.
	SubmitBatch(tenant string, evs []wire.Event) (admitted int, err error)
	// RouteAlarms directs the tenant's alarms into sink until replaced or
	// cleared with a nil sink. The sink runs on the tenant's stream
	// thread and must not block.
	RouteAlarms(tenant string, sink func(wire.Alarm)) error
	// Quiesce blocks until the tenant's ingestion queue is empty at an
	// event boundary.
	Quiesce(tenant string) error
	// Export returns the tenant's checkpoint envelope (model + state).
	Export(tenant string) (model, state []byte, err error)
	// Flush force-closes the tenant's open anomaly chains.
	Flush(tenant string) error
	// Drain quiesces every tenant; d <= 0 means no deadline.
	Drain(d time.Duration) error
	// StatsJSON reports the backend's serving stats as a JSON document,
	// embedded verbatim in the worker's ShardStats reply.
	StatsJSON() ([]byte, error)
}

// WorkerConfig tunes a shard worker.
type WorkerConfig struct {
	// Backend serves the shard. Required.
	Backend Backend
	// Classify maps a Backend error to the code carried by ShardNack and
	// ShardErr frames; nil classifies everything as CodeInternal.
	Classify func(error) wire.Code
	// MaxFrame caps accepted frame sizes; <= 0 selects the wire default.
	MaxFrame int
	// OutBuffer sizes each link's outbound frame queue. Defaults to 1024.
	OutBuffer int
	// HelloTimeout bounds how long a fresh link may sit silent before its
	// ShardHello. Defaults to 10s.
	HelloTimeout time.Duration
	// IdleTimeout evicts a link that delivers no frame for this long; the
	// proxy's keepalive pings hold quiet links open. Defaults to 2m.
	IdleTimeout time.Duration
	// WriteTimeout bounds each socket write. Defaults to 30s.
	WriteTimeout time.Duration
	// AckEvery is the cumulative ShardAck cadence per tenant: one ack per
	// this many decided events. Defaults to 32.
	AckEvery int
	// AlarmRing caps each tenant's unconfirmed-alarm replay ring;
	// overflow evicts the oldest and counts it dropped. Defaults to 256.
	AlarmRing int
	// ChunkSize bounds each EnvelopeChunk payload. Defaults to 128KiB and
	// is clamped under MaxFrame.
	ChunkSize int
	// Logf receives operational log lines; nil disables logging.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.OutBuffer <= 0 {
		c.OutBuffer = 1024
	}
	if c.AlarmRing <= 0 {
		c.AlarmRing = 256
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 128 << 10
	}
	if max := c.MaxFrame - 1024; c.ChunkSize > max {
		c.ChunkSize = max
	}
	if c.Classify == nil {
		c.Classify = func(error) wire.Code { return wire.CodeInternal }
	}
	return c
}

// WorkerStats snapshots a worker's counters; it is also the JSON document
// answered to a ShardStats request, with the backend's own stats embedded.
type WorkerStats struct {
	ActiveLinks int    `json:"active_links"`
	Links       uint64 `json:"links"`
	Tenants     int    `json:"tenants"`
	// Events counts admissions, Nacks refusals, Duplicates frames dropped
	// at a tenant watermark (already decided by an earlier delivery).
	// Every batch event received is exactly one of the three.
	Events     uint64 `json:"events"`
	Nacks      uint64 `json:"nacks"`
	Duplicates uint64 `json:"duplicates"`
	// Resumes counts accepted ResumeTenant frames.
	Resumes uint64 `json:"resumes"`
	// Alarms counts alarm frames pushed on a live link, AlarmsBuffered
	// those banked while the link was down (or its queue full),
	// AlarmReplays ring entries re-pushed on resume or quiesce, and
	// AlarmsDropped ring overflow evictions — real, counted loss.
	Alarms         uint64 `json:"alarms"`
	AlarmsBuffered uint64 `json:"alarms_buffered"`
	AlarmReplays   uint64 `json:"alarm_replays"`
	AlarmsDropped  uint64 `json:"alarms_dropped"`
	// AlarmReceipts counts the router's AlarmStreamAck frames: cumulative
	// per tenant and carried on the link's own writes.
	AlarmReceipts uint64 `json:"alarm_receipts"`
	// EnvelopeBytesIn counts checkpoint bytes received in registrations
	// and swaps; EnvelopeBytesOut bytes exported to the router.
	EnvelopeBytesIn  uint64 `json:"envelope_bytes_in"`
	EnvelopeBytesOut uint64 `json:"envelope_bytes_out"`
	EvictedIdle      uint64 `json:"evicted_idle"`
	AuthFailures     uint64 `json:"auth_failures"`
	// Backend is the backend's own stats document (hub counters).
	Backend json.RawMessage `json:"backend,omitempty"`
}

// wkTenant is the durable per-tenant receiving end that outlives any one
// link: the decided watermark and the alarm bank.
type wkTenant struct {
	name string
	rx   wire.Receiver
}

// appendAlarm is the tenant's AlarmStream encoder. Receiver.Push calls it
// onto nil: it sizes the frame first and allocates it once, and the bank
// keeps that allocation.
func (t *wkTenant) appendAlarm(dst []byte, idx uint64, a wire.Alarm) ([]byte, error) {
	return wire.AppendAlarmStream(dst, t.name, idx, a)
}

// pendingEnvelope accumulates RegisterTenant chunks until EnvelopeDone.
type pendingEnvelope struct {
	reg   wire.RegisterTenant
	model bytes.Buffer
	state bytes.Buffer
}

// Worker serves one process's shard over cluster links: the shard-link
// vocabulary over the resumable-stream core (wire.Endpoint,
// wire.Receiver). All methods are safe for concurrent use.
type Worker struct {
	cfg WorkerConfig
	ep  *wire.Endpoint

	mu      sync.Mutex
	tenants map[string]*wkTenant

	resumes          atomic.Uint64
	envelopeBytesIn  atomic.Uint64
	envelopeBytesOut atomic.Uint64
}

// NewWorker creates a shard worker over a backend; call Serve with a
// listener to start accepting router links.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Backend == nil {
		return nil, errors.New("cluster: worker with nil backend")
	}
	cfg = cfg.withDefaults()
	return &Worker{
		cfg: cfg,
		ep: (&wire.Endpoint{Name: "cluster", HelloTimeout: cfg.HelloTimeout, IdleTimeout: cfg.IdleTimeout,
			WriteTimeout: cfg.WriteTimeout, MaxFrame: cfg.MaxFrame, OutBuffer: cfg.OutBuffer,
			AckEvery: cfg.AckEvery, AlarmRing: cfg.AlarmRing, Logf: cfg.Logf}).WithDefaults(),
		tenants: make(map[string]*wkTenant),
	}, nil
}

// Serve accepts router links on ln until the listener fails or the worker
// is closed; a clean Close returns nil.
func (w *Worker) Serve(ln net.Listener) error {
	return w.ep.Serve(ln, func(l *wire.Writer) wire.Handler {
		return &link{w: w, l: l, pending: make(map[string]*pendingEnvelope)}
	})
}

// Close stops accepting and closes every live link (including half-open
// ones still waiting for their ShardHello). The backend and its tenants
// keep running — a worker restart or router reconnect resumes them.
// Idempotent.
func (w *Worker) Close() error {
	w.ep.Close()
	return nil
}

// Stats snapshots the worker's counters (without the backend document; the
// ShardStats reply adds it).
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	nt := len(w.tenants)
	w.mu.Unlock()
	e := w.ep
	return WorkerStats{
		ActiveLinks:      int(e.Active.Load()),
		Links:            e.Accepted.Load(),
		Tenants:          nt,
		Events:           e.Events.Load(),
		Nacks:            e.Nacks.Load(),
		Duplicates:       e.Duplicates.Load(),
		Resumes:          w.resumes.Load(),
		Alarms:           e.Alarms.Load(),
		AlarmsBuffered:   e.AlarmsBuffered.Load(),
		AlarmReplays:     e.AlarmReplays.Load(),
		AlarmsDropped:    e.AlarmsDropped.Load(),
		AlarmReceipts:    e.Receipts.Load(),
		EnvelopeBytesIn:  w.envelopeBytesIn.Load(),
		EnvelopeBytesOut: w.envelopeBytesOut.Load(),
		EvictedIdle:      e.EvictedIdle.Load(),
		AuthFailures:     e.AuthFailures.Load(),
	}
}

// tenant looks up durable tenant state.
func (w *Worker) tenant(name string) *wkTenant {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tenants[name]
}

func (w *Worker) tenantList() []*wkTenant {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*wkTenant, 0, len(w.tenants))
	for _, t := range w.tenants {
		out = append(out, t)
	}
	return out
}

// link is one accepted router link: the shard-link vocabulary's Handler
// and, for the SubmitBatch frame being decided, its wire.Vocab.
type link struct {
	w       *Worker
	l       *wire.Writer
	pending map[string]*pendingEnvelope

	// Reader scratch reused for every SubmitBatch frame: the name table,
	// the decoded batch and its events, the ShardNack and ShardAck frames
	// answering it, and its tenant.
	names  wire.Names
	bes    []wire.BatchEvent
	evs    []wire.Event
	out    []byte
	tenant string
}

func (k *link) String() string { return "router " + k.l.Conn().RemoteAddr().String() }

// Teardown detaches the link from every tenant it was serving; tenants and
// their watermarks survive for the router's resume.
func (k *link) Teardown() {
	for _, t := range k.w.tenantList() {
		t.rx.Detach(k.l)
	}
}

// ErrorFrame answers a refusal with a ShardErr.
func (k *link) ErrorFrame(r wire.Refusal) ([]byte, error) {
	return wire.AppendShardErr(nil, wire.ShardErr{Code: r.Code, Detail: r.Detail})
}

func (k *link) Hello(r *wire.Reader) error {
	t, p, err := r.Next()
	if err != nil {
		return err
	}
	if t != wire.FrameShardHello {
		return wire.Protocolf("expected shard-hello, got %s", t)
	}
	ver, token, router, err := wire.ParseShardHello(p)
	if err != nil {
		return wire.Protocolf("malformed shard-hello")
	}
	if ver != wire.Version {
		return wire.Protocolf("protocol version %d, want %d", ver, wire.Version)
	}
	if err := k.w.cfg.Backend.Authenticate(token); err != nil {
		k.w.ep.Printf("refused router link from %s (%q): %v", k.l.Conn().RemoteAddr(), router, err)
		return wire.Refusal{Code: wire.CodeBadAuth, Detail: "authentication rejected"}
	}
	k.l.Send(wire.AppendShardWelcome(nil, uint32(k.w.cfg.MaxFrame)))
	return nil
}

// ok replies TenantOK for op, carrying the tenant's current watermark (the
// reply doubles as a cumulative ack) and alarm index (zero for tenant-less
// ops).
func (w *Worker) ok(l *wire.Writer, op wire.ShardOp, t *wkTenant, tenant string) {
	reply := wire.TenantOK{Op: op, Tenant: tenant}
	if t != nil {
		reply.Watermark, reply.AlarmIdx = t.rx.Ack()
	}
	if frame, err := wire.AppendTenantOK(nil, reply); err == nil {
		l.Send(frame)
	}
}

func (w *Worker) fail(l *wire.Writer, op wire.ShardOp, tenant string, err error) {
	if frame, ferr := wire.AppendShardErr(nil, wire.ShardErr{Op: op, Tenant: tenant, Code: w.cfg.Classify(err), Detail: err.Error()}); ferr == nil {
		l.Send(frame)
	}
}

// failUnknown reports a control op against a tenant this worker does not
// host. The code is fixed (not classified): the router's resume logic keys
// on CodeUnknownTenant to tell a lost tenant from a transient failure.
func (w *Worker) failUnknown(l *wire.Writer, op wire.ShardOp, tenant string) {
	if frame, err := wire.AppendShardErr(nil, wire.ShardErr{Op: op, Tenant: tenant, Code: wire.CodeUnknownTenant, Detail: "tenant not registered"}); err == nil {
		l.Send(frame)
	}
}

// commitEnvelope applies a completed RegisterTenant envelope: a hot model
// swap, or a registration (fresh or restore) that adopts the tenant onto
// this link.
func (w *Worker) commitEnvelope(l *wire.Writer, pe *pendingEnvelope) {
	name := pe.reg.Tenant
	w.envelopeBytesIn.Add(uint64(pe.model.Len() + pe.state.Len()))
	if pe.reg.Flags&wire.RegFlagSwap != 0 {
		if err := w.cfg.Backend.Swap(name, pe.model.Bytes()); err != nil {
			w.fail(l, wire.OpSwap, name, err)
			return
		}
		w.ok(l, wire.OpSwap, w.tenant(name), name)
		return
	}
	if t := w.tenant(name); t != nil {
		// Already registered through this worker: a register retry after a
		// link cut that swallowed the reply. Adopt, don't re-create — the
		// router never re-registers a live tenant with a different payload.
		w.ok(l, wire.OpRegister, t, name)
		t.rx.Attach(w.ep, l, 0)
		return
	}
	var state []byte
	if pe.reg.Flags&wire.RegFlagHasState != 0 {
		state = pe.state.Bytes()
	}
	if err := w.cfg.Backend.Register(name, pe.model.Bytes(), state, int(pe.reg.Queue), pe.reg.Policy); err != nil {
		w.fail(l, wire.OpRegister, name, err)
		return
	}
	t := &wkTenant{name: name}
	t.rx.Attach(w.ep, l, 0)
	if err := w.cfg.Backend.RouteAlarms(name, func(a wire.Alarm) { t.rx.Push(w.ep, a, t.appendAlarm) }); err != nil {
		_ = w.cfg.Backend.Deregister(name)
		w.fail(l, wire.OpRegister, name, err)
		return
	}
	w.mu.Lock()
	w.tenants[name] = t
	w.mu.Unlock()
	w.ok(l, wire.OpRegister, t, name)
}

// Seq, Submit, AppendNack and AppendAck make link the shard-link
// vocabulary of wire.Decide for the frame's tenant.
func (k *link) Seq(be *wire.BatchEvent) uint64 { return be.Link }

func (k *link) Submit(bes []wire.BatchEvent) (int, error) {
	k.evs = k.evs[:0]
	for _, be := range bes {
		k.evs = append(k.evs, be.Ev)
	}
	return k.w.cfg.Backend.SubmitBatch(k.tenant, k.evs)
}

func (k *link) AppendNack(dst []byte, be *wire.BatchEvent, err error) []byte {
	if out, ferr := wire.AppendShardNack(dst, wire.ShardNack{Tenant: k.tenant, Link: be.Link, Code: k.w.cfg.Classify(err), Detail: err.Error()}); ferr == nil {
		return out
	}
	return dst
}

func (k *link) AppendAck(dst []byte, wm uint64) []byte {
	if out, err := wire.AppendShardAck(dst, k.tenant, wm); err == nil {
		return out
	}
	return dst
}

// decide runs one SubmitBatch frame, held in k.bes, through wire.Decide
// under its tenant's watermark.
func (k *link) decide() error {
	t := k.w.tenant(k.tenant)
	if t == nil {
		frame, err := wire.AppendShardNack(nil, wire.ShardNack{Tenant: k.tenant, Code: wire.CodeUnknownTenant, Detail: "tenant not registered"})
		if err == nil {
			k.l.Send(frame)
		}
		return nil
	}
	var err error
	if k.out, err = wire.Decide(k.w.ep, &t.rx, k, k.bes, k.out[:0]); err != nil {
		return wire.Protocolf("%v", err)
	}
	if len(k.out) > 0 {
		k.l.Send(k.out)
	}
	return nil
}

// Frame handles one frame after the ShardHello.
func (k *link) Frame(ft wire.FrameType, p []byte) error {
	w, l := k.w, k.l
	malformed := func() error { return wire.Protocolf("malformed %s", ft) }
	var err error
	switch ft {
	case wire.FrameSubmitBatch:
		if k.tenant, k.bes, err = k.names.ParseSubmitBatch(p, k.bes[:0]); err != nil {
			return malformed()
		}
		return k.decide()
	case wire.FrameRegisterTenant:
		reg, err := wire.ParseRegisterTenant(p)
		if err != nil {
			return malformed()
		}
		k.pending[reg.Tenant] = &pendingEnvelope{reg: reg}
	case wire.FrameEnvelopeChunk:
		c, err := wire.ParseEnvelopeChunk(p)
		if err != nil {
			return malformed()
		}
		pe := k.pending[c.Tenant]
		if pe == nil {
			return wire.Protocolf("envelope-chunk without register-tenant")
		}
		if c.Kind == wire.EnvModel {
			pe.model.Write(c.Data)
		} else {
			pe.state.Write(c.Data)
		}
	case wire.FrameEnvelopeDone, wire.FrameQuiesce, wire.FrameExportEnvelope, wire.FrameDeregisterTenant, wire.FrameFlushTenant:
		tenant, err := wire.ParseTenantFrame(p)
		if err != nil {
			return malformed()
		}
		return k.tenantOp(ft, tenant)
	case wire.FrameResumeTenant:
		tenant, receipt, err := wire.ParseResumeTenant(p)
		if err != nil {
			return malformed()
		}
		tn := w.tenant(tenant)
		if tn == nil {
			w.failUnknown(l, wire.OpResume, tenant)
			return nil
		}
		w.resumes.Add(1)
		// Reply first (the router prunes its window off the watermark),
		// then replay unconfirmed alarms; the router dedups by index.
		w.ok(l, wire.OpResume, tn, tenant)
		tn.rx.Attach(w.ep, l, receipt)
	case wire.FrameDrain:
		millis, err := wire.ParseDrain(p)
		if err != nil {
			return malformed()
		}
		if err := w.cfg.Backend.Drain(time.Duration(millis) * time.Millisecond); err != nil {
			w.fail(l, wire.OpDrain, "", err)
			return nil
		}
		w.ok(l, wire.OpDrain, nil, "")
	case wire.FrameShardStatsReq:
		st := w.Stats()
		if doc, err := w.cfg.Backend.StatsJSON(); err == nil {
			st.Backend = doc
		}
		doc, err := json.Marshal(st)
		if err != nil {
			w.fail(l, wire.OpStats, "", err)
			return nil
		}
		l.Send(wire.AppendShardStats(nil, doc))
	case wire.FrameAlarmStreamAck:
		tenant, idx, err := wire.ParseAlarmStreamAck(p)
		if err != nil {
			return malformed()
		}
		w.ep.Receipts.Add(1)
		if tn := w.tenant(tenant); tn != nil {
			tn.rx.Confirm(idx)
		}
	case wire.FramePing:
		// Flush the cumulative ack for every tenant attached to this link:
		// the tail below the AckEvery cadence must not sit in the router's
		// retransmit window forever once the stream goes quiet.
		// The acks and the Pong are encoded into the reader's scratch and
		// sent as one run, which the writer copies.
		k.out = k.out[:0]
		for _, tn := range w.tenantList() {
			if tn.rx.Attached(l) {
				wm, _ := tn.rx.Ack()
				if out, err := wire.AppendShardAck(k.out, tn.name, wm); err == nil {
					k.out = out
				}
			}
		}
		k.out = wire.AppendPong(k.out)
		l.Send(k.out)
	case wire.FrameBye:
		return io.EOF
	default:
		return wire.Protocolf("unexpected %s frame", ft)
	}
	return nil
}

// tenantOp runs one control frame that names only its tenant.
func (k *link) tenantOp(ft wire.FrameType, tenant string) error {
	w, l := k.w, k.l
	switch ft {
	case wire.FrameEnvelopeDone:
		pe := k.pending[tenant]
		if pe == nil {
			return wire.Protocolf("envelope-done without register-tenant")
		}
		delete(k.pending, tenant)
		w.commitEnvelope(l, pe)
	case wire.FrameQuiesce:
		tn := w.tenant(tenant)
		if tn == nil {
			w.failUnknown(l, wire.OpQuiesce, tenant)
			return nil
		}
		// The link is FIFO: every event written before this frame has
		// been enqueued by now, so the backend drain covers them all.
		if err := w.cfg.Backend.Quiesce(tenant); err != nil {
			w.fail(l, wire.OpQuiesce, tenant, err)
			return nil
		}
		// Replay unconfirmed alarms before the reply: after quiesce the
		// router may migrate the tenant away, and a banked alarm must not
		// be stranded behind a route flip.
		tn.rx.Attach(w.ep, l, 0)
		w.ok(l, wire.OpQuiesce, tn, tenant)
	case wire.FrameExportEnvelope:
		model, state, err := w.cfg.Backend.Export(tenant)
		if err != nil {
			w.fail(l, wire.OpExport, tenant, err)
			return nil
		}
		w.envelopeBytesOut.Add(uint64(len(model) + len(state)))
		frames, err := envelopeFrames(nil, tenant, model, state, w.cfg.ChunkSize)
		if err != nil {
			w.ep.Printf("encoding envelope for %q: %v", tenant, err)
			return err
		}
		for _, f := range frames {
			l.Send(f)
		}
	case wire.FrameDeregisterTenant:
		tn := w.tenant(tenant)
		if err := w.cfg.Backend.Deregister(tenant); err != nil {
			w.fail(l, wire.OpDeregister, tenant, err)
			return nil
		}
		w.mu.Lock()
		delete(w.tenants, tenant)
		w.mu.Unlock()
		w.ok(l, wire.OpDeregister, tn, tenant)
	case wire.FrameFlushTenant:
		if err := w.cfg.Backend.Flush(tenant); err != nil {
			w.fail(l, wire.OpFlush, tenant, err)
			return nil
		}
		w.ok(l, wire.OpFlush, w.tenant(tenant), tenant)
	}
	return nil
}
