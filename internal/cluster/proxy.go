package cluster

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// ProxyConfig tunes a remote shard proxy.
type ProxyConfig struct {
	// Addr is the shard worker's address. Required.
	Addr string
	// Token is presented in the ShardHello; Router names this router in
	// worker-side logs.
	Token  string
	Router string
	// TLS, when non-nil, dials the worker over TLS with this config.
	TLS *tls.Config
	// MaxFrame caps accepted frame sizes; <= 0 selects the wire default.
	MaxFrame int
	// Window caps each tenant's ring of sent-but-unacknowledged events
	// held for retransmit. A full window blocks Submit (Block policy) or
	// refuses it (Reject). Defaults to 4096.
	Window int
	// OutBuffer sizes the outbound frame queue. Defaults to 1024.
	OutBuffer int
	// DialTimeout bounds each dial plus handshake. Defaults to 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds each socket write. Defaults to 30s.
	WriteTimeout time.Duration
	// ControlTimeout bounds each control op's reply; past it the link is
	// cut (its state is indeterminate) and the op fails. Defaults to 30s.
	ControlTimeout time.Duration
	// KeepAlive is the idle ping cadence that holds the link open under
	// the worker's idle timeout and flushes the worker's cumulative ack
	// tails for quiet tenants. Alarm receipts do not wait for it: they ride
	// the link's next write, or go out after wire.ReceiptDelay. Defaults
	// to 20s.
	KeepAlive time.Duration
	// MaxAttempts bounds consecutive failed reconnects before giving up.
	// Defaults to 8.
	MaxAttempts int
	// BackoffMin and BackoffMax bound the capped exponential reconnect
	// backoff. Defaults: 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// JitterSeed makes backoff jitter deterministic for tests; 0 derives
	// a fixed default.
	JitterSeed int64
	// OnNack observes worker-side event refusals (async: the event was
	// already accepted into the window when the refusal arrives). Called
	// from the reader goroutine; must not call back into the proxy.
	OnNack func(wire.ShardNack)
	// OnStateChange observes link state transitions; same restrictions.
	OnStateChange func(wire.SessionState)
	// Logf receives operational log lines; nil disables logging.
	Logf func(format string, args ...any)
}

func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.OutBuffer <= 0 {
		c.OutBuffer = 1024
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.ControlTimeout <= 0 {
		c.ControlTimeout = 30 * time.Second
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = 20 * time.Second
	}
	return c
}

// ProxyStats snapshots a proxy's fault-tolerance counters.
type ProxyStats struct {
	State wire.SessionState
	// Reconnects counts successful link recoveries; Attempts every dial
	// tried; Resumes per-tenant resume ops completed.
	Reconnects uint64
	Attempts   uint64
	Resumes    uint64
	// Retransmits counts events re-sent from tenant windows on resume.
	Retransmits uint64
	// Nacks counts worker-side refusals received; DuplicateAlarms alarm
	// replays dropped by index dedup; Alarms alarms dispatched;
	// SkippedAlarms alarms whose body did not decode, receipted past
	// without delivery.
	Nacks           uint64
	Alarms          uint64
	DuplicateAlarms uint64
	SkippedAlarms   uint64
	// Pending is the total event count across tenant windows.
	Pending int
	// EnvelopeBytesOut counts checkpoint bytes shipped to the worker;
	// EnvelopeBytesIn bytes exported back.
	EnvelopeBytesOut uint64
	EnvelopeBytesIn  uint64
}

// maxBatch caps the events the link writer merges into one SubmitBatch
// frame.
const maxBatch = 256

// pxTenant is the proxy-side per-tenant sending end: the link-sequence
// window of sent-but-unacknowledged events (the retransmit source after a
// link death) and the alarm receipt cursor.
type pxTenant struct {
	name string
	sink func(wire.Alarm)

	mu      sync.Mutex
	cond    *sync.Cond
	window  wire.Window
	sent    uint64       // highest link written to t.link
	link    *wire.Writer // link this tenant was last resumed on
	reject  bool         // Reject policy: full window refuses instead of blocking
	dropped bool         // deregistered; blocked Submits must bail

	alarms wire.AlarmCursor
	// rcptQueued is set while the tenant sits in the proxy's receipt list:
	// its cursor advanced past rcptCarried, the index of the last
	// AlarmStreamAck a write carried.
	rcptQueued  atomic.Bool
	rcptCarried atomic.Uint64
	// retired is set once the tenant left the proxy's table: its receipt
	// must not reach a later registration of the same name.
	retired atomic.Bool
}

// ctlResult is one control op's outcome.
type ctlResult struct {
	ok    wire.TenantOK
	stats []byte // ShardStats reply document
	model []byte // export reply sections
	state []byte
	err   error
}

// pendingCtl is the single in-flight control op; the reader completes it.
type pendingCtl struct {
	op     wire.ShardOp
	tenant string
	ch     chan ctlResult
	model  []byte
	state  []byte
}

// Proxy is the router-side remote shard: it multiplexes many tenants'
// events, alarms, and control ops over one worker link, reconnecting with
// per-tenant resume when the link dies — the shard-link vocabulary's
// sending end over wire.Link, wire.Window and wire.AlarmCursor. All
// methods are safe for concurrent use.
type Proxy struct {
	cfg  ProxyConfig
	link *wire.Link[*wire.Writer]

	mu      sync.Mutex
	tenants map[string]*pxTenant
	ctl     *pendingCtl

	ctlMu sync.Mutex // serializes user control ops

	// Alarm receipts: the tenants whose cursors advanced since a link write
	// last carried their AlarmStreamAck. The link writer's trailer drains
	// the list onto every write; rcptTimer, armed while rcptArmed is set,
	// nudges a quiet link after wire.ReceiptDelay.
	rcptMu    sync.Mutex
	rcptDue   []*pxTenant
	rcptArmed atomic.Bool
	rcptTimer *time.Timer
	ping      []byte // an encoded Ping, reused by every keepalive

	resumes          uint64
	retransmits      uint64
	nacksReceived    uint64
	skippedAlarms    uint64
	envBytesOut      uint64
	envBytesIn       uint64
	alarmsDispatched atomic.Uint64
	duplicateAlarms  atomic.Uint64
}

// Open dials the worker and performs the ShardHello handshake. The initial
// dial is synchronous: an unreachable worker fails here.
func Open(cfg ProxyConfig) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("cluster: proxy with empty address")
	}
	p := &Proxy{cfg: cfg, tenants: make(map[string]*pxTenant), ping: wire.AppendPing(nil)}
	p.rcptTimer = time.AfterFunc(time.Hour, p.receiptDue)
	p.rcptTimer.Stop()
	p.link = wire.NewLink(wire.LinkVocab[*wire.Writer]{Dial: p.dial, Resume: p.resumeAll, GaveUp: p.gaveUp,
		ErrClosed: ErrProxyClosed, ErrGaveUp: ErrLinkGaveUp},
		cfg.MaxAttempts, wire.NewBackoff(cfg.BackoffMin, cfg.BackoffMax, cfg.JitterSeed), cfg.OnStateChange)
	if err := p.link.Open(); err != nil {
		p.rcptTimer.Stop()
		return nil, err
	}
	p.link.Go(p.keepalive)
	return p, nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// dial opens one connection and completes the hello handshake
// synchronously, then starts its reader.
func (p *Proxy) dial() (*wire.Writer, error) {
	hello, err := wire.AppendShardHello(nil, p.cfg.Token, p.cfg.Router)
	if err != nil {
		return nil, err
	}
	nc, r, t, payload, err := wire.DialStream(p.cfg.Addr, p.cfg.TLS, p.cfg.DialTimeout, hello, p.cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	var peerMax uint32
	switch t {
	case wire.FrameShardWelcome:
		if _, peerMax, err = wire.ParseShardWelcome(payload); err != nil {
			nc.Close()
			return nil, err
		}
	case wire.FrameShardErr:
		e, perr := wire.ParseShardErr(payload)
		nc.Close()
		if perr != nil {
			return nil, perr
		}
		return nil, e
	default:
		nc.Close()
		return nil, fmt.Errorf("%w: expected shard-welcome, got %s", wire.ErrBadFrame, t)
	}
	nc.SetDeadline(time.Time{})
	l := wire.NewWriter(nc, p.cfg.OutBuffer, int(peerMax), p.cfg.WriteTimeout, func() {
		p.logf("cluster: shard %s: write stalled past %v", p.cfg.Addr, p.cfg.WriteTimeout)
	})
	l.SetTrailer(p.appendReceipts)
	p.link.Go(func() { p.readLoop(l, r) })
	return l, nil
}

// resumeAll re-adopts every tenant on a fresh link: ResumeTenant returns
// the worker's watermark; the window prunes to it and retransmits the tail
// in order. Only after every tenant resumes is the link published for new
// Submits, so retransmitted tails and new events cannot interleave out of
// link order. On the first link there are no tenants to resume.
func (p *Proxy) resumeAll(l *wire.Writer) error {
	err := p.resumeTenants(l)
	if err == nil {
		err = p.link.Publish(l)
	}
	if err != nil {
		l.Finish()
		return err
	}
	// Flush any window tail banked after a tenant's resume retransmit but
	// before the publish, so no event strands unsent until the next link
	// death.
	for _, t := range p.tenantList() {
		t.mu.Lock()
		p.flushTailLocked(l, t)
		t.link = l
		t.mu.Unlock()
	}
	if st := p.link.Stats(); st.Reconnects > 0 {
		p.logf("cluster: shard %s link resumed after %v", p.cfg.Addr, st.Recoveries[len(st.Recoveries)-1].Round(time.Millisecond))
	}
	return nil
}

func (p *Proxy) resumeTenants(l *wire.Writer) error {
	for _, t := range p.tenantList() {
		frame, err := wire.AppendResumeTenant(nil, t.name, t.alarms.Index())
		if err != nil {
			return err
		}
		res, err := p.roundTrip(l, &pendingCtl{op: wire.OpResume, tenant: t.name, ch: make(chan ctlResult, 1)}, frame)
		if err != nil {
			var se wire.ShardErr
			if errors.As(err, &se) && se.Code == wire.CodeUnknownTenant {
				// The worker lost this tenant (restarted process): count
				// the orphan and keep the rest of the shard serving. The
				// facade surfaces it through window pressure and logs.
				p.logf("cluster: shard %s: tenant %q unknown on resume (worker restarted?); its window is stranded", p.cfg.Addr, t.name)
				continue
			}
			return err
		}
		t.mu.Lock()
		t.window.Confirm(res.ok.Watermark)
		// Retransmit the whole unacked window, still under t.mu so a
		// concurrent Submit cannot interleave ahead of the tail.
		t.sent = 0
		p.flushTailLocked(l, t)
		retransmits := t.window.Len()
		t.cond.Broadcast()
		t.mu.Unlock()
		p.mu.Lock()
		p.retransmits += uint64(retransmits)
		p.resumes++
		p.mu.Unlock()
	}
	return nil
}

// gaveUp wakes Submits blocked on full windows; they fail typed.
func (p *Proxy) gaveUp() {
	p.wakeAll()
	p.logf("cluster: shard %s link gave up reconnecting", p.cfg.Addr)
}

func (p *Proxy) wakeAll() {
	for _, t := range p.tenantList() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// flushTailLocked sends every window event above the tenant's sent mark and
// advances the mark. On the hot path the tail is the batch SubmitBatch just
// added, and the link writer appends it to the tenant's open SubmitBatch
// frame. Callers hold t.mu, which keeps the tail contiguous with any
// concurrent SubmitBatch.
func (p *Proxy) flushTailLocked(l *wire.Writer, t *pxTenant) {
	w := t.window.Items()
	at := len(w)
	for at > 0 && w[at-1].Link > t.sent {
		at--
	}
	if n, _ := l.SendEvents(t.name, w[at:], maxBatch); n > 0 {
		t.sent = w[at+n-1].Link
	}
}

// streamLocked sends the tenant's unsent tail when the link it was resumed
// on is live. Callers hold t.mu.
func (p *Proxy) streamLocked(t *pxTenant) {
	if l, ok := p.link.Current(); ok && l == t.link {
		// A dropped send here is not a loss: the events stay in the window
		// and the next resume retransmits them.
		p.flushTailLocked(l, t)
	}
}

func (p *Proxy) tenant(name string) *pxTenant {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants[name]
}

func (p *Proxy) tenantList() []*pxTenant {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*pxTenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// keepalive pings the link on a cadence: holds the worker's idle deadline
// open and flushes cumulative ack tails both ways — the worker answers with
// each attached tenant's ShardAck, and the ping's write carries any pending
// alarm receipts.
func (p *Proxy) keepalive() {
	tick := time.NewTicker(p.cfg.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.Ping()
		case <-p.link.Closing():
			return
		}
	}
}

// readLoop dispatches inbound frames until the link dies; finishing the
// writer hands the death to the link's reconnect loop.
func (p *Proxy) readLoop(l *wire.Writer, r *wire.Reader) {
	defer l.Finish()
	// The link's intern table: tenant, device and context names of the
	// alarms it carries decode without allocating once seen.
	var names wire.Names
	for {
		t, payload, err := r.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && p.link.Err() == nil {
				p.logf("cluster: shard %s link: %v", p.cfg.Addr, err)
			}
			return
		}
		if err := p.dispatch(&names, t, payload); err != nil {
			// A frame this end cannot parse ends the link, as in
			// wire.Client: skipping it would lose what it carried
			// without a trace (a refused alarm stays banked,
			// unacknowledged, on the worker). The link's reconnect and
			// resume take it from here.
			p.logf("cluster: shard %s: bad %s frame: %v", p.cfg.Addr, t, err)
			return
		}
	}
}

// dispatch handles one inbound frame; the error is the frame's parse
// failure.
func (p *Proxy) dispatch(names *wire.Names, t wire.FrameType, payload []byte) error {
	switch t {
	case wire.FrameShardAck:
		tenant, wm, err := wire.ParseShardAck(payload)
		if err != nil {
			return err
		}
		p.ackTenant(tenant, wm)
	case wire.FrameShardNack:
		n, err := wire.ParseShardNack(payload)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.nacksReceived++
		p.mu.Unlock()
		// A nack is decided: the worker's watermark advanced to n.Link,
		// so the window prunes through it like an ack.
		p.ackTenant(n.Tenant, n.Link)
		if p.cfg.OnNack != nil {
			p.cfg.OnNack(n)
		}
	case wire.FrameAlarmStream:
		tenant, idx, alarm, err := names.ParseAlarmStream(payload)
		if err != nil {
			if tenant != "" {
				p.skipAlarm(tenant, idx)
			}
			return err
		}
		p.dispatchAlarm(tenant, idx, alarm)
	case wire.FrameTenantOK:
		ok, err := wire.ParseTenantOK(payload)
		if err != nil {
			return err
		}
		// The reply's watermark doubles as a cumulative ack.
		if ok.Tenant != "" {
			p.ackTenant(ok.Tenant, ok.Watermark)
		}
		p.completeCtl(ctlResult{ok: ok})
	case wire.FrameShardErr:
		e, err := wire.ParseShardErr(payload)
		if err != nil {
			return err
		}
		p.completeCtl(ctlResult{err: e})
	case wire.FrameEnvelopeChunk:
		c, err := wire.ParseEnvelopeChunk(payload)
		if err != nil {
			return err
		}
		p.mu.Lock()
		if pc := p.ctl; pc != nil && pc.op == wire.OpExport && pc.tenant == c.Tenant {
			if c.Kind == wire.EnvModel {
				pc.model = append(pc.model, c.Data...)
			} else {
				pc.state = append(pc.state, c.Data...)
			}
			p.envBytesIn += uint64(len(c.Data))
		}
		p.mu.Unlock()
	case wire.FrameEnvelopeDone:
		tenant, err := wire.ParseTenantFrame(payload)
		if err != nil {
			return err
		}
		p.mu.Lock()
		pc := p.ctl
		p.mu.Unlock()
		if pc != nil && pc.op == wire.OpExport && pc.tenant == tenant {
			p.completeCtl(ctlResult{model: pc.model, state: pc.state})
		}
	case wire.FrameShardStats:
		doc := make([]byte, len(payload))
		copy(doc, payload)
		p.completeCtl(ctlResult{stats: doc})
	case wire.FramePong:
		// keepalive echo; nothing to do
	default:
		p.logf("cluster: shard %s: unexpected %s frame", p.cfg.Addr, t)
	}
	return nil
}

// ackTenant prunes a tenant's window through the cumulative watermark and
// wakes Submits blocked on a full window.
func (p *Proxy) ackTenant(tenant string, wm uint64) {
	t := p.tenant(tenant)
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.window.Confirm(wm) {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// dispatchAlarm dedups by alarm index (bank replays may overlap confirmed
// deliveries), hands the alarm to the tenant sink, and queues the receipt.
func (p *Proxy) dispatchAlarm(tenant string, idx uint64, a wire.Alarm) {
	t := p.tenant(tenant)
	if t == nil {
		return
	}
	if !t.alarms.Receive(idx) {
		p.duplicateAlarms.Add(1)
		return
	}
	if t.sink != nil {
		t.sink(a)
	}
	p.alarmsDispatched.Add(1)
	p.queueReceipt(t, idx)
}

// queueReceipt puts the tenant, whose cursor reached idx, on the receipt
// list, once until a write carries its receipt. A receipt wire.ReceiptLag
// alarms ahead of the last one carried nudges the link writer at once;
// any other arms the ReceiptDelay fallback.
func (p *Proxy) queueReceipt(t *pxTenant, idx uint64) {
	if t.rcptQueued.CompareAndSwap(false, true) {
		p.rcptMu.Lock()
		p.rcptDue = append(p.rcptDue, t)
		p.rcptMu.Unlock()
	}
	if idx-t.rcptCarried.Load() >= wire.ReceiptLag {
		if l, ok := p.link.Current(); ok {
			l.Nudge()
			return
		}
	}
	if p.rcptArmed.CompareAndSwap(false, true) {
		p.rcptTimer.Reset(wire.ReceiptDelay)
	}
}

// appendReceipts is the link writer's trailer: one cumulative
// AlarmStreamAck per tenant on the receipt list, riding the write. A
// receipt lost with a dying link only means a longer replay: the resume
// carries the cursor.
func (p *Proxy) appendReceipts(dst []byte) []byte {
	p.rcptMu.Lock()
	defer p.rcptMu.Unlock()
	for i, t := range p.rcptDue {
		// Cleared before the cursor is read: an alarm received meanwhile
		// queues the tenant again rather than going unreceipted.
		t.rcptQueued.Store(false)
		p.rcptDue[i] = nil
		if t.retired.Load() {
			continue
		}
		idx := t.alarms.Index()
		if out, err := wire.AppendAlarmStreamAck(dst, t.name, idx); err == nil {
			dst = out
			t.rcptCarried.Store(idx)
		}
	}
	p.rcptDue = p.rcptDue[:0]
	return dst
}

// receiptDue is the ReceiptDelay fallback: it wakes the live link's writer
// so receipts no write has carried go out on their own.
func (p *Proxy) receiptDue() {
	p.rcptArmed.Store(false)
	if l, ok := p.link.Current(); ok {
		l.Nudge()
	}
}

// skipAlarm moves the tenant's receipt past an alarm whose body this end
// cannot decode. The link still ends on the frame, and the resume's receipt
// prunes the alarm from the worker's bank instead of replaying it into the
// same refusal on every new link.
func (p *Proxy) skipAlarm(tenant string, idx uint64) {
	t := p.tenant(tenant)
	if t == nil || !t.alarms.Receive(idx) {
		return
	}
	p.mu.Lock()
	p.skippedAlarms++
	p.mu.Unlock()
	p.logf("cluster: shard %s: tenant %q alarm %d skipped: its body does not decode", p.cfg.Addr, tenant, idx)
}

// completeCtl resolves the pending control op, including one whose frames
// never reached the worker when the link died.
func (p *Proxy) completeCtl(res ctlResult) {
	p.mu.Lock()
	pc := p.ctl
	if pc == nil {
		p.mu.Unlock()
		return
	}
	p.ctl = nil
	p.mu.Unlock()
	pc.ch <- res
}

// roundTrip registers pc as the in-flight control op, sends its frames, and
// waits for the reader to complete it. The caller must hold ctlMu (user
// ops) or be the reconnect goroutine (which runs before the link is
// published, so no user op can race the slot).
func (p *Proxy) roundTrip(l *wire.Writer, pc *pendingCtl, frames ...[]byte) (ctlResult, error) {
	p.mu.Lock()
	p.ctl = pc
	p.mu.Unlock()
	for _, f := range frames {
		l.Send(f)
	}
	select {
	case res := <-pc.ch:
		return res, res.err
	case <-time.After(p.cfg.ControlTimeout):
		p.mu.Lock()
		if p.ctl == pc {
			p.ctl = nil
		}
		p.mu.Unlock()
		// The op may have half-applied on the worker; the link's state is
		// indeterminate, so cut it and let resume re-establish invariants.
		l.Conn().Close()
		return ctlResult{}, ErrControlTimeout
	case <-l.Done():
		// The link died under the op; a reply read before that completed it.
		p.completeCtl(ctlResult{err: ErrLinkDown})
		res := <-pc.ch
		return res, res.err
	case <-p.link.Closing():
		return ctlResult{}, ErrProxyClosed
	}
}

// control runs one user-initiated control op against the live link.
func (p *Proxy) control(op wire.ShardOp, tenant string, frames ...[]byte) (ctlResult, error) {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if err := p.link.Err(); err != nil {
		return ctlResult{}, err
	}
	l, ok := p.link.Current()
	if !ok {
		return ctlResult{}, ErrLinkDown
	}
	return p.roundTrip(l, &pendingCtl{op: op, tenant: tenant, ch: make(chan ctlResult, 1)}, frames...)
}

// Register creates a tenant on the worker from a checkpoint envelope and
// starts routing its alarms into sink. state nil means a fresh registration
// (model only); reject selects refuse-on-full-window backpressure for this
// tenant's Submits (otherwise they block until the window drains).
func (p *Proxy) Register(tenant string, model, state []byte, queue uint32, policy uint8, reject bool, sink func(wire.Alarm)) error {
	frames, err := p.registerFrames(tenant, 0, model, state, queue, policy)
	if err != nil {
		return err
	}
	t := &pxTenant{name: tenant, reject: reject, sink: sink,
		window: wire.NewWindow(p.cfg.Window)}
	t.cond = sync.NewCond(&t.mu)
	p.mu.Lock()
	if _, dup := p.tenants[tenant]; dup {
		p.mu.Unlock()
		return fmt.Errorf("cluster: tenant %q already registered on this proxy", tenant)
	}
	// Read under p.mu: a resume publishing a new link either sees this
	// tenant in its list or is seen here.
	t.link, _ = p.link.Current()
	p.tenants[tenant] = t
	p.mu.Unlock()
	if _, err := p.control(wire.OpRegister, tenant, frames...); err != nil {
		p.mu.Lock()
		delete(p.tenants, tenant)
		p.mu.Unlock()
		t.retired.Store(true)
		return err
	}
	p.mu.Lock()
	p.envBytesOut += uint64(len(model) + len(state))
	p.mu.Unlock()
	return nil
}

// registerFrames builds the RegisterTenant announce plus the envelope.
// extraFlags adds RegFlagSwap for model swaps.
func (p *Proxy) registerFrames(tenant string, extraFlags uint8, model, state []byte, queue uint32, policy uint8) ([][]byte, error) {
	flags := extraFlags
	if state != nil {
		flags |= wire.RegFlagHasState
	}
	reg, err := wire.AppendRegisterTenant(nil, wire.RegisterTenant{Tenant: tenant, Flags: flags, Queue: queue, Policy: policy})
	if err != nil {
		return nil, err
	}
	return envelopeFrames([][]byte{reg}, tenant, model, state, min(p.cfg.MaxFrame-1024, 128<<10))
}

// Swap hot-swaps the model under a running tenant.
func (p *Proxy) Swap(tenant string, model []byte) error {
	frames, err := p.registerFrames(tenant, wire.RegFlagSwap, model, nil, 0, 0)
	if err != nil {
		return err
	}
	if _, err := p.control(wire.OpSwap, tenant, frames...); err != nil {
		return err
	}
	p.mu.Lock()
	p.envBytesOut += uint64(len(model))
	p.mu.Unlock()
	return nil
}

// Submit accepts one event: SubmitBatch with a batch of one.
func (p *Proxy) Submit(tenant string, ev wire.Event) error {
	evs := [1]wire.Event{ev}
	_, err := p.SubmitBatch(tenant, evs[:])
	return err
}

// SubmitBatch accepts evs into the tenant's window in order, under one hold
// of the tenant lock, and when the link is live streams them. While
// degraded the events bank and are delivered by the resume retransmit. A
// full window blocks (Block policy) until acks drain it, or refuses the
// event with wire backpressure (Reject). It returns how many events were
// accepted and, when that is fewer than len(evs), the error refusing
// evs[accepted].
func (p *Proxy) SubmitBatch(tenant string, evs []wire.Event) (accepted int, err error) {
	t := p.tenant(tenant)
	if t == nil {
		return 0, ErrUnknownTenant
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ev := range evs {
		if err := p.roomLocked(t); err != nil {
			p.streamLocked(t)
			return i, err
		}
		t.window.Add(wire.BatchEvent{Link: t.window.Last() + 1, Ev: ev})
	}
	p.streamLocked(t)
	return len(evs), nil
}

// roomLocked waits until the tenant's window has a free slot, or reports
// why the next event is refused. Before a Block wait it streams the
// batch's events already banked: the acks that free the window answer
// them. Callers hold t.mu.
func (p *Proxy) roomLocked(t *pxTenant) error {
	for t.window.Full() {
		if t.dropped {
			return ErrUnknownTenant
		}
		if err := p.link.Err(); err != nil {
			return err
		}
		if t.reject {
			return wire.ShardNack{Tenant: t.name, Code: wire.CodeBackpressure, Detail: "shard link window full"}
		}
		p.streamLocked(t)
		t.cond.Wait()
	}
	if t.dropped {
		return ErrUnknownTenant
	}
	return nil
}

// Quiesce drains the tenant's worker-side queue to an event boundary. On
// return every event submitted before the call is decided (the reply's
// watermark pruned the window) and every alarm those events raised has been
// dispatched — the link-ordered prelude to a migration export.
func (p *Proxy) Quiesce(tenant string) error {
	_, err := p.tenantControl(wire.OpQuiesce, wire.FrameQuiesce, tenant)
	return err
}

// Export fetches the tenant's checkpoint envelope from the worker.
func (p *Proxy) Export(tenant string) (model, state []byte, err error) {
	res, err := p.tenantControl(wire.OpExport, wire.FrameExportEnvelope, tenant)
	return res.model, res.state, err
}

// Flush force-closes the tenant's open anomaly chains; resulting abrupt
// alarms are dispatched before the reply arrives.
func (p *Proxy) Flush(tenant string) error {
	_, err := p.tenantControl(wire.OpFlush, wire.FrameFlushTenant, tenant)
	return err
}

// Deregister removes the tenant from the worker and the proxy table.
func (p *Proxy) Deregister(tenant string) error {
	if _, err := p.tenantControl(wire.OpDeregister, wire.FrameDeregisterTenant, tenant); err != nil {
		return err
	}
	p.mu.Lock()
	t := p.tenants[tenant]
	delete(p.tenants, tenant)
	p.mu.Unlock()
	if t != nil {
		t.retired.Store(true)
		t.mu.Lock()
		t.dropped = true
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	return nil
}

// tenantControl runs control op through a request frame of type ft that
// names only its tenant.
func (p *Proxy) tenantControl(op wire.ShardOp, ft wire.FrameType, tenant string) (ctlResult, error) {
	frame, err := wire.AppendTenantFrame(nil, ft, tenant)
	if err != nil {
		return ctlResult{}, err
	}
	return p.control(op, tenant, frame)
}

// Drain asks the worker to quiesce every tenant it hosts; d bounds the
// worker-side wait (<= 0 waits indefinitely).
func (p *Proxy) Drain(d time.Duration) error {
	var millis uint64
	if d > 0 {
		millis = uint64(d / time.Millisecond)
	}
	_, err := p.control(wire.OpDrain, "", wire.AppendDrain(nil, millis))
	return err
}

// StatsDoc fetches the worker's stats JSON document.
func (p *Proxy) StatsDoc() ([]byte, error) {
	res, err := p.control(wire.OpStats, "", wire.AppendShardStatsReq(nil))
	if err != nil {
		return nil, err
	}
	return res.stats, nil
}

// Ping nudges the live link (keepalive + ack flush); a no-op while down.
func (p *Proxy) Ping() {
	if l, ok := p.link.Current(); ok {
		l.TrySend(p.ping)
	}
}

// Pending reports the total event count banked across tenant windows.
func (p *Proxy) Pending() int {
	n := 0
	for _, t := range p.tenantList() {
		t.mu.Lock()
		n += t.window.Len()
		t.mu.Unlock()
	}
	return n
}

// State reports the link state.
func (p *Proxy) State() wire.SessionState { return p.link.Stats().State }

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	pending := p.Pending()
	ls := p.link.Stats()
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProxyStats{
		State:            ls.State,
		Reconnects:       ls.Reconnects,
		Attempts:         ls.Attempts,
		Resumes:          p.resumes,
		Retransmits:      p.retransmits,
		Nacks:            p.nacksReceived,
		Alarms:           p.alarmsDispatched.Load(),
		DuplicateAlarms:  p.duplicateAlarms.Load(),
		SkippedAlarms:    p.skippedAlarms,
		Pending:          pending,
		EnvelopeBytesOut: p.envBytesOut,
		EnvelopeBytesIn:  p.envBytesIn,
	}
}

// Close tears the proxy down: stops the reconnect machinery, closes the
// live link, wakes blocked Submits, and waits for all goroutines.
// Idempotent.
func (p *Proxy) Close() error {
	if l, ok := p.link.Close(); ok {
		p.rcptTimer.Stop()
		p.completeCtl(ctlResult{err: ErrProxyClosed})
		if l != nil {
			// Finish discards what is pending: let it and the Bye out first.
			l.SendWait(wire.AppendBye(nil), time.Second)
			l.Finish()
		}
		p.wakeAll()
	}
	p.link.Wait()
	return nil
}
