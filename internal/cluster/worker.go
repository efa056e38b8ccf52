package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 32
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
	// EnvelopeBytesIn counts checkpoint bytes received in registrations
	// and swaps; EnvelopeBytesOut bytes exported to the router.
	EnvelopeBytesIn  uint64 `json:"envelope_bytes_in"`
	EnvelopeBytesOut uint64 `json:"envelope_bytes_out"`
	EvictedIdle      uint64 `json:"evicted_idle"`
	AuthFailures     uint64 `json:"auth_failures"`
	// Backend is the backend's own stats document (hub counters).
	Backend json.RawMessage `json:"backend,omitempty"`
}

// bankedAlarm is one ring entry: alarm index plus the pre-encoded
// AlarmStream frame, so replay is a straight enqueue.
type bankedAlarm struct {
	idx   uint64
	frame []byte
}

// wkTenant is the durable per-tenant state that outlives any one link: the
// decided watermark for exactly-once admission and the unconfirmed-alarm
// replay ring. The two mutexes split the two concerns exactly like the wire
// server's session: evMu is held across Backend.SubmitBatch (which may
// block under a Block policy); the alarm sink takes only alarmMu.
type wkTenant struct {
	name string

	evMu      sync.Mutex
	watermark uint64 // highest link sequence decided (admitted or nacked)
	sinceAck  int

	alarmMu  sync.Mutex
	link     *wire.Writer // link currently attached; nil while orphaned
	alarmSeq uint64
	ring     []bankedAlarm
	ringCap  int
}

// pendingEnvelope accumulates RegisterTenant chunks until EnvelopeDone.
type pendingEnvelope struct {
	reg   wire.RegisterTenant
	model bytes.Buffer
	state bytes.Buffer
}

// Worker serves one process's shard over cluster links. All methods are
// safe for concurrent use.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	links   map[*wire.Writer]struct{}
	tenants map[string]*wkTenant
	closed  bool

	active           atomic.Int64
	totalLinks       atomic.Uint64
	events           atomic.Uint64
	nacks            atomic.Uint64
	duplicates       atomic.Uint64
	resumes          atomic.Uint64
	alarms           atomic.Uint64
	alarmsBuffered   atomic.Uint64
	alarmReplays     atomic.Uint64
	alarmsDropped    atomic.Uint64
	envelopeBytesIn  atomic.Uint64
	envelopeBytesOut atomic.Uint64
	evictedIdle      atomic.Uint64
	authFailures     atomic.Uint64
}

// NewWorker creates a shard worker over a backend; call Serve with a
// listener to start accepting router links.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Backend == nil {
		return nil, errors.New("cluster: worker with nil backend")
	}
	return &Worker{
		cfg:     cfg.withDefaults(),
		lns:     make(map[net.Listener]struct{}),
		links:   make(map[*wire.Writer]struct{}),
		tenants: make(map[string]*wkTenant),
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Serve accepts router links on ln until the listener fails or the worker
// is closed; a clean Close returns nil.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("cluster: worker closed")
	}
	w.lns[ln] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.lns, ln)
		w.mu.Unlock()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.totalLinks.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.handle(nc)
		}()
	}
}

// Close stops accepting, closes every live link (including half-open ones
// still waiting for their ShardHello), and drops tenant link state. The
// backend and its tenants keep running — a worker restart or router
// reconnect resumes them. Idempotent.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for ln := range w.lns {
		ln.Close()
	}
	links := make([]*wire.Writer, 0, len(w.links))
	for l := range w.links {
		links = append(links, l)
	}
	w.mu.Unlock()
	for _, l := range links {
		l.Conn().Close()
	}
	return nil
}

// Stats snapshots the worker's counters (without the backend document; the
// ShardStats reply adds it).
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	nt := len(w.tenants)
	w.mu.Unlock()
	return WorkerStats{
		ActiveLinks:      int(w.active.Load()),
		Links:            w.totalLinks.Load(),
		Tenants:          nt,
		Events:           w.events.Load(),
		Nacks:            w.nacks.Load(),
		Duplicates:       w.duplicates.Load(),
		Resumes:          w.resumes.Load(),
		Alarms:           w.alarms.Load(),
		AlarmsBuffered:   w.alarmsBuffered.Load(),
		AlarmReplays:     w.alarmReplays.Load(),
		AlarmsDropped:    w.alarmsDropped.Load(),
		EnvelopeBytesIn:  w.envelopeBytesIn.Load(),
		EnvelopeBytesOut: w.envelopeBytesOut.Load(),
		EvictedIdle:      w.evictedIdle.Load(),
		AuthFailures:     w.authFailures.Load(),
	}
}

func (w *Worker) handle(nc net.Conn) {
	l := wire.NewWriter(nc, w.cfg.OutBuffer, 0, w.cfg.WriteTimeout, func() {
		w.evictedIdle.Add(1)
		w.logf("cluster: evicting router %s: write stalled past %v", nc.RemoteAddr(), w.cfg.WriteTimeout)
	})
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		l.Finish()
		return
	}
	w.links[l] = struct{}{}
	w.mu.Unlock()
	defer func() {
		l.Finish()
		w.teardown(l)
	}()

	r := wire.NewReader(nc, w.cfg.MaxFrame)
	nc.SetReadDeadline(time.Now().Add(w.cfg.HelloTimeout))
	if err := w.hello(l, r); err != nil {
		w.authFailures.Add(1)
		return
	}
	nc.SetReadDeadline(time.Time{})
	w.active.Add(1)
	defer w.active.Add(-1)
	w.readLoop(l, r)
}

// teardown detaches the link from every tenant it was serving; tenants and
// their watermarks survive for the router's resume.
func (w *Worker) teardown(l *wire.Writer) {
	w.mu.Lock()
	delete(w.links, l)
	tenants := make([]*wkTenant, 0, len(w.tenants))
	for _, t := range w.tenants {
		tenants = append(tenants, t)
	}
	w.mu.Unlock()
	for _, t := range tenants {
		t.alarmMu.Lock()
		if t.link == l {
			t.link = nil
		}
		t.alarmMu.Unlock()
	}
}

// errClose sends one final ShardErr and waits for it to reach the socket
// before the deferred teardown.
func (w *Worker) errClose(l *wire.Writer, e wire.ShardErr) {
	if frame, err := wire.AppendShardErr(nil, e); err == nil {
		l.SendWait(frame, time.Second)
	}
}

func (w *Worker) hello(l *wire.Writer, r *wire.Reader) error {
	t, p, err := r.Next()
	if err != nil {
		return err
	}
	if t != wire.FrameShardHello {
		w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: fmt.Sprintf("expected shard-hello, got %s", t)})
		return fmt.Errorf("%w: first frame %s", wire.ErrBadFrame, t)
	}
	ver, token, router, err := wire.ParseShardHello(p)
	if err != nil {
		w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed shard-hello"})
		return err
	}
	if ver != wire.Version {
		w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: fmt.Sprintf("protocol version %d, want %d", ver, wire.Version)})
		return fmt.Errorf("%w: version %d", wire.ErrBadFrame, ver)
	}
	if err := w.cfg.Backend.Authenticate(token); err != nil {
		w.errClose(l, wire.ShardErr{Code: wire.CodeBadAuth, Detail: "authentication rejected"})
		w.logf("cluster: refused router link from %s (%q): %v", l.Conn().RemoteAddr(), router, err)
		return err
	}
	l.Send(wire.AppendShardWelcome(nil, uint32(w.cfg.MaxFrame)))
	return nil
}

// tenant looks up durable tenant state.
func (w *Worker) tenant(name string) *wkTenant {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tenants[name]
}

// alarmSink banks every alarm in the tenant's replay ring and pushes it on
// the attached link when one is listening. Runs on the tenant's stream
// thread: never blocks, never touches evMu.
func (w *Worker) alarmSink(t *wkTenant) func(wire.Alarm) {
	return func(a wire.Alarm) {
		t.alarmMu.Lock()
		t.alarmSeq++
		idx := t.alarmSeq
		frame, err := wire.AppendAlarmStream(nil, t.name, idx, a)
		if err != nil {
			t.alarmMu.Unlock()
			w.alarmsDropped.Add(1)
			return
		}
		if len(t.ring) >= t.ringCap {
			// Every ring entry is unconfirmed, so an eviction is a real,
			// counted loss — never silent.
			t.ring = append(t.ring[:0], t.ring[1:]...)
			w.alarmsDropped.Add(1)
		}
		t.ring = append(t.ring, bankedAlarm{idx: idx, frame: frame})
		l := t.link
		t.alarmMu.Unlock()
		if l == nil {
			w.alarmsBuffered.Add(1)
			return
		}
		if l.TrySend(frame) {
			w.alarms.Add(1)
			return
		}
		// Queue full on a live link: stays banked, replayed on the next
		// resume or quiesce.
		w.alarmsBuffered.Add(1)
	}
}

// pruneRingLocked drops ring entries the router has confirmed. Callers
// hold alarmMu.
func (t *wkTenant) pruneRingLocked(idx uint64) {
	keep := 0
	for ; keep < len(t.ring) && t.ring[keep].idx <= idx; keep++ {
	}
	if keep > 0 {
		t.ring = append(t.ring[:0], t.ring[keep:]...)
	}
}

// replayRing re-pushes every unconfirmed ring alarm on l in order. The
// router dedups by alarm index, so a replay can never double-deliver; it
// runs on resume (link recovery) and before a quiesce reply (so no alarm is
// stranded banked at a migration boundary).
func (w *Worker) replayRing(t *wkTenant, l *wire.Writer) {
	t.alarmMu.Lock()
	frames := make([][]byte, len(t.ring))
	for i, ba := range t.ring {
		frames[i] = ba.frame
	}
	t.alarmMu.Unlock()
	for _, f := range frames {
		w.alarmReplays.Add(1)
		l.Send(f)
	}
}

// ok replies TenantOK for op, carrying the tenant's current watermark and
// alarm index (zero for tenant-less ops).
func (w *Worker) ok(l *wire.Writer, op wire.ShardOp, t *wkTenant, tenant string) {
	reply := wire.TenantOK{Op: op, Tenant: tenant}
	if t != nil {
		t.evMu.Lock()
		reply.Watermark = t.watermark
		t.sinceAck = 0 // the reply doubles as a cumulative ack
		t.evMu.Unlock()
		t.alarmMu.Lock()
		reply.AlarmIdx = t.alarmSeq
		t.alarmMu.Unlock()
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
	w.mu.Lock()
	if t := w.tenants[name]; t != nil {
		// Already registered through this worker: a register retry after a
		// link cut that swallowed the reply. Adopt, don't re-create — the
		// router never re-registers a live tenant with a different payload.
		w.mu.Unlock()
		t.alarmMu.Lock()
		t.link = l
		t.alarmMu.Unlock()
		w.ok(l, wire.OpRegister, t, name)
		return
	}
	w.mu.Unlock()
	var state []byte
	if pe.reg.Flags&wire.RegFlagHasState != 0 {
		state = pe.state.Bytes()
	}
	if err := w.cfg.Backend.Register(name, pe.model.Bytes(), state, int(pe.reg.Queue), pe.reg.Policy); err != nil {
		w.fail(l, wire.OpRegister, name, err)
		return
	}
	t := &wkTenant{name: name, link: l, ringCap: w.cfg.AlarmRing}
	if err := w.cfg.Backend.RouteAlarms(name, w.alarmSink(t)); err != nil {
		_ = w.cfg.Backend.Deregister(name)
		w.fail(l, wire.OpRegister, name, err)
		return
	}
	w.mu.Lock()
	w.tenants[name] = t
	w.mu.Unlock()
	w.ok(l, wire.OpRegister, t, name)
}

// linkScratch is a link reader's reusable decode and reply buffers.
type linkScratch struct {
	bes []wire.BatchEvent
	evs []wire.Event
	out []byte // ShardNack and ShardAck frames answering one batch
}

// decideBatch is the one admission path of a SubmitBatch frame, held in
// sc.bes. Under one hold of the tenant's evMu it counts the prefix at or
// below the watermark as duplicates (a retransmit overlap), admits the rest
// in link order with one Backend.SubmitBatch call per refusal, and answers
// each refused event with a ShardNack; every decided event advances the
// watermark, and the frame earns at most one cumulative ShardAck. It
// returns false only when the link must close.
func (w *Worker) decideBatch(l *wire.Writer, tenant string, sc *linkScratch) bool {
	t := w.tenant(tenant)
	if t == nil {
		frame, err := wire.AppendShardNack(nil, wire.ShardNack{Tenant: tenant, Code: wire.CodeUnknownTenant, Detail: "tenant not registered"})
		if err == nil {
			l.Send(frame)
		}
		return true
	}
	t.evMu.Lock()
	dup := 0
	for dup < len(sc.bes) && sc.bes[dup].Link <= t.watermark {
		dup++
	}
	fresh := sc.bes[dup:]
	for i := 1; i < len(fresh); i++ {
		if fresh[i].Link <= fresh[i-1].Link {
			t.evMu.Unlock()
			w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "link sequence not increasing"})
			return false
		}
	}
	w.duplicates.Add(uint64(dup))
	sc.evs = sc.evs[:0]
	for _, be := range fresh {
		sc.evs = append(sc.evs, be.Ev)
	}
	sc.out = sc.out[:0]
	// evMu stays held across SubmitBatch: a zombie link racing the resumed
	// one serializes here, keeping admission exactly-once and in link
	// order. The alarm path never takes evMu, so a Block policy waiting out
	// a full queue cannot deadlock the stream thread.
	for evs, links := sc.evs, fresh; len(evs) > 0; {
		n, err := w.cfg.Backend.SubmitBatch(tenant, evs)
		if err == nil {
			w.events.Add(uint64(len(evs)))
			break
		}
		n = min(n, len(evs)-1)
		w.events.Add(uint64(n))
		w.nacks.Add(1)
		if out, ferr := wire.AppendShardNack(sc.out, wire.ShardNack{Tenant: tenant, Link: links[n].Link, Code: w.cfg.Classify(err), Detail: err.Error()}); ferr == nil {
			sc.out = out
		}
		evs, links = evs[n+1:], links[n+1:]
	}
	if len(fresh) > 0 {
		t.watermark = fresh[len(fresh)-1].Link
		t.sinceAck += len(fresh)
		if t.sinceAck >= w.cfg.AckEvery {
			t.sinceAck = 0
			if out, err := wire.AppendShardAck(sc.out, tenant, t.watermark); err == nil {
				sc.out = out
			}
		}
	}
	t.evMu.Unlock()
	if len(sc.out) > 0 {
		l.Send(sc.out)
	}
	return true
}

func (w *Worker) readLoop(l *wire.Writer, r *wire.Reader) {
	pending := make(map[string]*pendingEnvelope)
	var sc linkScratch
	var names wire.Names
	idle := w.cfg.IdleTimeout
	var deadlineAt time.Time
	for {
		// Re-arm the idle deadline lazily, one syscall per half-window.
		if idle > 0 {
			now := time.Now()
			if deadlineAt.Sub(now) <= idle/2 {
				deadlineAt = now.Add(idle)
				l.Conn().SetReadDeadline(deadlineAt)
			}
		}
		t, p, err := r.Next()
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: err.Error()})
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				w.evictedIdle.Add(1)
				w.logf("cluster: evicting router %s: no frame in %v", l.Conn().RemoteAddr(), idle)
			} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				w.logf("cluster: router link %s: %v", l.Conn().RemoteAddr(), err)
			}
			return
		}
		switch t {
		case wire.FrameSubmitBatch:
			var tenant string
			if tenant, sc.bes, err = names.ParseSubmitBatch(p, sc.bes[:0]); err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed submit-batch"})
				return
			}
			if !w.decideBatch(l, tenant, &sc) {
				return
			}
		case wire.FrameRegisterTenant:
			reg, err := wire.ParseRegisterTenant(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed register-tenant"})
				return
			}
			pending[reg.Tenant] = &pendingEnvelope{reg: reg}
		case wire.FrameEnvelopeChunk:
			c, err := wire.ParseEnvelopeChunk(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed envelope-chunk"})
				return
			}
			pe := pending[c.Tenant]
			if pe == nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "envelope-chunk without register-tenant"})
				return
			}
			if c.Kind == wire.EnvModel {
				pe.model.Write(c.Data)
			} else {
				pe.state.Write(c.Data)
			}
		case wire.FrameEnvelopeDone:
			tenant, err := wire.ParseTenantFrame(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed envelope-done"})
				return
			}
			pe := pending[tenant]
			if pe == nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "envelope-done without register-tenant"})
				return
			}
			delete(pending, tenant)
			w.commitEnvelope(l, pe)
		case wire.FrameResumeTenant:
			tenant, alarmIdx, err := wire.ParseResumeTenant(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed resume-tenant"})
				return
			}
			tn := w.tenant(tenant)
			if tn == nil {
				w.failUnknown(l, wire.OpResume, tenant)
				continue
			}
			tn.alarmMu.Lock()
			tn.pruneRingLocked(alarmIdx)
			tn.link = l
			tn.alarmMu.Unlock()
			w.resumes.Add(1)
			// Reply first (the router prunes its window off the watermark),
			// then replay unconfirmed alarms; the router dedups by index.
			w.ok(l, wire.OpResume, tn, tenant)
			w.replayRing(tn, l)
		case wire.FrameQuiesce:
			tenant, err := wire.ParseTenantFrame(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed quiesce"})
				return
			}
			tn := w.tenant(tenant)
			if tn == nil {
				w.failUnknown(l, wire.OpQuiesce, tenant)
				continue
			}
			// The link is FIFO: every event written before this frame has
			// been enqueued by now, so the backend drain covers them all.
			if err := w.cfg.Backend.Quiesce(tenant); err != nil {
				w.fail(l, wire.OpQuiesce, tenant, err)
				continue
			}
			// Flush unconfirmed alarms before the reply: after quiesce the
			// router may migrate the tenant away, and a banked alarm must
			// not be stranded behind a route flip.
			w.replayRing(tn, l)
			w.ok(l, wire.OpQuiesce, tn, tenant)
		case wire.FrameExportEnvelope:
			tenant, err := wire.ParseTenantFrame(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed export-envelope"})
				return
			}
			model, state, err := w.cfg.Backend.Export(tenant)
			if err != nil {
				w.fail(l, wire.OpExport, tenant, err)
				continue
			}
			w.envelopeBytesOut.Add(uint64(len(model) + len(state)))
			if !w.sendEnvelope(l, tenant, model, state) {
				return
			}
		case wire.FrameDeregisterTenant:
			tenant, err := wire.ParseTenantFrame(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed deregister-tenant"})
				return
			}
			tn := w.tenant(tenant)
			if err := w.cfg.Backend.Deregister(tenant); err != nil {
				w.fail(l, wire.OpDeregister, tenant, err)
				continue
			}
			w.mu.Lock()
			delete(w.tenants, tenant)
			w.mu.Unlock()
			w.ok(l, wire.OpDeregister, tn, tenant)
		case wire.FrameFlushTenant:
			tenant, err := wire.ParseTenantFrame(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed flush-tenant"})
				return
			}
			if err := w.cfg.Backend.Flush(tenant); err != nil {
				w.fail(l, wire.OpFlush, tenant, err)
				continue
			}
			w.ok(l, wire.OpFlush, w.tenant(tenant), tenant)
		case wire.FrameDrain:
			millis, err := wire.ParseDrain(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed drain"})
				return
			}
			if err := w.cfg.Backend.Drain(time.Duration(millis) * time.Millisecond); err != nil {
				w.fail(l, wire.OpDrain, "", err)
				continue
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
				continue
			}
			l.Send(wire.AppendShardStats(nil, doc))
		case wire.FrameAlarmStreamAck:
			tenant, idx, err := wire.ParseAlarmStreamAck(p)
			if err != nil {
				w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: "malformed alarm-stream-ack"})
				return
			}
			if tn := w.tenant(tenant); tn != nil {
				tn.alarmMu.Lock()
				tn.pruneRingLocked(idx)
				tn.alarmMu.Unlock()
			}
		case wire.FramePing:
			// Flush the cumulative ack for every tenant attached to this
			// link: the tail below the AckEvery cadence must not sit in the
			// router's retransmit window forever once the stream goes quiet.
			w.mu.Lock()
			tenants := make([]*wkTenant, 0, len(w.tenants))
			for _, tn := range w.tenants {
				tenants = append(tenants, tn)
			}
			w.mu.Unlock()
			for _, tn := range tenants {
				tn.alarmMu.Lock()
				attached := tn.link == l
				tn.alarmMu.Unlock()
				if !attached {
					continue
				}
				tn.evMu.Lock()
				tn.sinceAck = 0
				ack, _ := wire.AppendShardAck(nil, tn.name, tn.watermark)
				tn.evMu.Unlock()
				if ack != nil {
					l.Send(ack)
				}
			}
			l.Send(wire.AppendPong(nil))
		case wire.FrameBye:
			return
		default:
			w.errClose(l, wire.ShardErr{Code: wire.CodeProtocol, Detail: fmt.Sprintf("unexpected %s frame", t)})
			return
		}
	}
}

// sendEnvelope streams one checkpoint envelope to the router as chunks plus
// the EnvelopeDone commit; false means an encode failure already closed the
// link.
func (w *Worker) sendEnvelope(l *wire.Writer, tenant string, model, state []byte) bool {
	for _, part := range []struct {
		kind uint8
		data []byte
	}{{wire.EnvModel, model}, {wire.EnvState, state}} {
		for _, piece := range chunked(part.data, w.cfg.ChunkSize) {
			frame, err := wire.AppendEnvelopeChunk(nil, wire.EnvelopeChunk{Tenant: tenant, Kind: part.kind, Data: piece})
			if err != nil {
				w.logf("cluster: encoding envelope chunk for %q: %v", tenant, err)
				l.Finish()
				return false
			}
			l.Send(frame)
		}
	}
	frame, err := wire.AppendTenantFrame(nil, wire.FrameEnvelopeDone, tenant)
	if err != nil {
		l.Finish()
		return false
	}
	l.Send(frame)
	return true
}
