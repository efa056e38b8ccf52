package cluster

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// LinkState is a proxy's shard-link health.
type LinkState int

const (
	// LinkConnected: a live link is attached and resumed.
	LinkConnected LinkState = iota
	// LinkDegraded: the link died; reconnects are running and SubmitBatch
	// banks events in the per-tenant windows meanwhile.
	LinkDegraded
	// LinkGaveUp: MaxAttempts consecutive reconnects failed; the proxy is
	// terminally down.
	LinkGaveUp
)

func (s LinkState) String() string {
	switch s {
	case LinkConnected:
		return "connected"
	case LinkDegraded:
		return "degraded"
	case LinkGaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

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
	// Batch caps events per SubmitBatch retransmit frame. Defaults 256.
	Batch int
	// DialTimeout bounds each dial plus handshake. Defaults to 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds each socket write. Defaults to 30s.
	WriteTimeout time.Duration
	// ControlTimeout bounds each control op's reply; past it the link is
	// cut (its state is indeterminate) and the op fails. Defaults to 30s.
	ControlTimeout time.Duration
	// KeepAlive is the idle ping cadence that holds the link open under
	// the worker's idle timeout and flushes ack tails. Defaults to 20s.
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
	OnStateChange func(LinkState)
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
	if c.Batch <= 0 {
		c.Batch = 256
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
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// ProxyStats snapshots a proxy's fault-tolerance counters.
type ProxyStats struct {
	State LinkState
	// Reconnects counts successful link recoveries; Attempts every dial
	// tried; Resumes per-tenant resume ops completed.
	Reconnects uint64
	Attempts   uint64
	Resumes    uint64
	// Retransmits counts events re-sent from tenant windows on resume.
	Retransmits uint64
	// Nacks counts worker-side refusals received; DuplicateAlarms alarm
	// replays dropped by index dedup; Alarms alarms dispatched.
	Nacks           uint64
	Alarms          uint64
	DuplicateAlarms uint64
	// Pending is the total event count across tenant windows.
	Pending int
	// EnvelopeBytesOut counts checkpoint bytes shipped to the worker;
	// EnvelopeBytesIn bytes exported back.
	EnvelopeBytesOut uint64
	EnvelopeBytesIn  uint64
}

// pxTenant is the proxy-side per-tenant state: the link-sequence window of
// sent-but-unacknowledged events (the retransmit source after a link death)
// and the alarm dedup index.
type pxTenant struct {
	name string

	mu       sync.Mutex
	cond     *sync.Cond
	nextLink uint64
	window   []wire.BatchEvent // unacked, ascending Link
	acked    uint64
	sent     uint64 // highest link written to the current generation's link
	gen      uint64 // link generation this tenant last resumed on
	reject   bool   // Reject policy: full window refuses instead of blocking
	dropped  bool   // deregistered; blocked Submits must bail

	alarmMu  sync.Mutex
	alarmIdx uint64 // highest alarm index dispatched
	sink     func(wire.Alarm)
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
// per-tenant resume when the link dies. All methods are safe for concurrent
// use.
type Proxy struct {
	cfg ProxyConfig

	mu      sync.Mutex
	conn    *wire.Writer
	gen     uint64 // increments per installed connection
	state   LinkState
	closed  bool
	gaveUp  bool
	tenants map[string]*pxTenant
	ctl     *pendingCtl

	ctlMu sync.Mutex // serializes user control ops

	reconnects       uint64
	attempts         uint64
	resumes          uint64
	retransmits      uint64
	nacksReceived    uint64
	alarmsDispatched uint64
	duplicateAlarms  uint64
	envBytesOut      uint64
	envBytesIn       uint64

	rng    *rand.Rand
	rngMu  sync.Mutex
	wg     sync.WaitGroup
	closeC chan struct{}
}

// Open dials the worker and performs the ShardHello handshake. The initial
// dial is synchronous: an unreachable worker fails here.
func Open(cfg ProxyConfig) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("cluster: proxy with empty address")
	}
	p := &Proxy{
		cfg:     cfg,
		state:   LinkDegraded,
		tenants: make(map[string]*pxTenant),
		rng:     rand.New(rand.NewSource(cfg.JitterSeed)),
		closeC:  make(chan struct{}),
	}
	l, err := p.dial()
	if err != nil {
		return nil, err
	}
	if err := p.install(l); err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go p.keepalive()
	return p, nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Proxy) notify(st LinkState) {
	if p.cfg.OnStateChange != nil {
		p.cfg.OnStateChange(st)
	}
}

// dial opens one connection and completes the hello handshake
// synchronously; the reader goroutine is not yet running.
func (p *Proxy) dial() (*wire.Writer, error) {
	p.mu.Lock()
	p.attempts++
	p.mu.Unlock()
	nc, err := net.DialTimeout("tcp", p.cfg.Addr, p.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if p.cfg.TLS != nil {
		tc := tls.Client(nc, p.cfg.TLS)
		tc.SetDeadline(time.Now().Add(p.cfg.DialTimeout))
		if err := tc.Handshake(); err != nil {
			nc.Close()
			return nil, fmt.Errorf("cluster: tls handshake with %s: %w", p.cfg.Addr, err)
		}
		tc.SetDeadline(time.Time{})
		nc = tc
	}
	hello, err := wire.AppendShardHello(nil, p.cfg.Token, p.cfg.Router)
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(p.cfg.DialTimeout))
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, err
	}
	r := wire.NewReader(nc, p.cfg.MaxFrame)
	t, payload, err := r.Next()
	if err != nil {
		nc.Close()
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
	p.wg.Add(1)
	go p.readLoop(l, r)
	return l, nil
}

// install publishes a fresh, fully handshaken link. For the first link
// there are no tenants to resume; reconnects go through resumeAll first.
// Any window tail banked after a tenant's resume retransmit but before this
// publish is flushed here, so no event strands unsent until the next link
// death. A link that already died is refused: linkDied skips a link that is
// not installed, so nothing else would notice it.
func (p *Proxy) install(l *wire.Writer) error {
	p.mu.Lock()
	select {
	case <-l.Done():
		p.mu.Unlock()
		return ErrLinkDown
	default:
	}
	p.conn = l
	p.gen++
	gen := p.gen
	p.state = LinkConnected
	tenants := p.tenantListLocked()
	p.mu.Unlock()
	for _, t := range tenants {
		t.mu.Lock()
		p.flushTailLocked(l, t)
		t.gen = gen
		t.mu.Unlock()
	}
	p.notify(LinkConnected)
	return nil
}

// flushTailLocked sends every window event above the tenant's sent mark and
// advances the mark. On the hot path the tail is the batch SubmitBatch just
// added, and the link writer appends it to the tenant's open SubmitBatch
// frame. Callers hold t.mu, which keeps the tail contiguous with any
// concurrent SubmitBatch.
func (p *Proxy) flushTailLocked(l *wire.Writer, t *pxTenant) {
	at := len(t.window)
	for at > 0 && t.window[at-1].Link > t.sent {
		at--
	}
	if n, _ := l.SendEvents(t.name, t.window[at:], p.cfg.Batch); n > 0 {
		t.sent = t.window[at+n-1].Link
	}
}

// streamLocked sends the tenant's unsent tail when a live link of the
// tenant's generation is attached. Callers hold t.mu.
func (p *Proxy) streamLocked(t *pxTenant) {
	if l, gen := p.current(); l != nil && gen == t.gen {
		// A dropped send here is not a loss: the events stay in the window
		// and the next resume retransmits them.
		p.flushTailLocked(l, t)
	}
}

func (p *Proxy) tenantListLocked() []*pxTenant {
	out := make([]*pxTenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// current returns the live link and its generation, or nil while degraded.
func (p *Proxy) current() (*wire.Writer, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != LinkConnected {
		return nil, p.gen
	}
	return p.conn, p.gen
}

// keepalive pings the link on a cadence: holds the worker's idle deadline
// open and flushes cumulative ack tails for quiet tenants.
func (p *Proxy) keepalive() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.Ping()
		case <-p.closeC:
			return
		}
	}
}

// readLoop dispatches inbound frames until the link dies, then hands off
// to the reconnect machinery.
func (p *Proxy) readLoop(l *wire.Writer, r *wire.Reader) {
	defer p.wg.Done()
	for {
		t, payload, err := r.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !p.isClosed() {
				p.logf("cluster: shard %s link: %v", p.cfg.Addr, err)
			}
			p.linkDied(l)
			return
		}
		switch t {
		case wire.FrameShardAck:
			tenant, wm, err := wire.ParseShardAck(payload)
			if err != nil {
				continue
			}
			p.ackTenant(tenant, wm)
		case wire.FrameShardNack:
			n, err := wire.ParseShardNack(payload)
			if err != nil {
				continue
			}
			p.mu.Lock()
			p.nacksReceived++
			p.mu.Unlock()
			// A nack is decided: the worker's watermark advanced to n.Link,
			// so the window prunes through it like an ack.
			if n.Link > 0 {
				p.ackTenant(n.Tenant, n.Link)
			}
			if p.cfg.OnNack != nil {
				p.cfg.OnNack(n)
			}
		case wire.FrameAlarmStream:
			tenant, idx, alarm, err := wire.ParseAlarmStream(payload)
			if err != nil {
				continue
			}
			p.dispatchAlarm(l, tenant, idx, alarm)
		case wire.FrameTenantOK:
			ok, err := wire.ParseTenantOK(payload)
			if err != nil {
				continue
			}
			// The reply's watermark doubles as a cumulative ack.
			if ok.Tenant != "" {
				p.ackTenant(ok.Tenant, ok.Watermark)
			}
			p.completeCtl(ctlResult{ok: ok})
		case wire.FrameShardErr:
			e, err := wire.ParseShardErr(payload)
			if err != nil {
				continue
			}
			p.completeCtl(ctlResult{err: e})
		case wire.FrameEnvelopeChunk:
			c, err := wire.ParseEnvelopeChunk(payload)
			if err != nil {
				continue
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
				continue
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
	}
}

func (p *Proxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ackTenant prunes a tenant's window through the cumulative watermark and
// wakes Submits blocked on a full window.
func (p *Proxy) ackTenant(tenant string, wm uint64) {
	p.mu.Lock()
	t := p.tenants[tenant]
	p.mu.Unlock()
	if t == nil {
		return
	}
	t.mu.Lock()
	if wm > t.acked {
		t.acked = wm
		t.pruneLocked(wm)
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

func (t *pxTenant) pruneLocked(wm uint64) {
	keep := 0
	for ; keep < len(t.window) && t.window[keep].Link <= wm; keep++ {
	}
	if keep > 0 {
		t.window = append(t.window[:0], t.window[keep:]...)
	}
}

// dispatchAlarm dedups by alarm index (ring replays may overlap confirmed
// deliveries), hands the alarm to the tenant sink, and confirms receipt.
func (p *Proxy) dispatchAlarm(l *wire.Writer, tenant string, idx uint64, a wire.Alarm) {
	p.mu.Lock()
	t := p.tenants[tenant]
	p.mu.Unlock()
	if t == nil {
		return
	}
	t.alarmMu.Lock()
	if idx <= t.alarmIdx {
		t.alarmMu.Unlock()
		p.mu.Lock()
		p.duplicateAlarms++
		p.mu.Unlock()
		return
	}
	t.alarmIdx = idx
	sink := t.sink
	t.alarmMu.Unlock()
	if sink != nil {
		sink(a)
	}
	p.mu.Lock()
	p.alarmsDispatched++
	p.mu.Unlock()
	if frame, err := wire.AppendAlarmStreamAck(nil, tenant, idx); err == nil {
		l.TrySend(frame) // a lost receipt only means a bigger replay later
	}
}

// linkDied marks the link degraded, fails the in-flight control op, and
// starts the reconnect loop (unless the proxy is closing).
func (p *Proxy) linkDied(l *wire.Writer) {
	l.Finish()
	p.mu.Lock()
	if p.closed || p.conn != l {
		p.mu.Unlock()
		return
	}
	p.conn = nil
	p.state = LinkDegraded
	p.mu.Unlock()
	p.completeCtl(ctlResult{err: ErrLinkDown})
	p.notify(LinkDegraded)
	p.wg.Add(1)
	go p.reconnect()
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

// reconnect runs capped exponential backoff until a dial plus full resume
// succeeds, the proxy closes, or MaxAttempts consecutive failures give up.
func (p *Proxy) reconnect() {
	defer p.wg.Done()
	died := time.Now()
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(p.backoff(attempt)):
		case <-p.closeC:
			return
		}
		l, err := p.dial()
		if err == nil {
			if err = p.resumeAll(l); err == nil {
				p.mu.Lock()
				p.reconnects++
				p.mu.Unlock()
				p.logf("cluster: shard %s link resumed after %v", p.cfg.Addr, time.Since(died).Round(time.Millisecond))
				return
			}
			l.Finish()
		}
		if p.isClosed() {
			return
		}
		if attempt+1 >= p.cfg.MaxAttempts {
			p.mu.Lock()
			p.gaveUp = true
			p.state = LinkGaveUp
			tenants := p.tenantListLocked()
			p.mu.Unlock()
			// Wake Submits blocked on full windows; they fail typed.
			for _, t := range tenants {
				t.mu.Lock()
				t.cond.Broadcast()
				t.mu.Unlock()
			}
			p.notify(LinkGaveUp)
			p.logf("cluster: shard %s link gave up after %d attempts", p.cfg.Addr, p.cfg.MaxAttempts)
			return
		}
	}
}

// resumeAll re-adopts every tenant on a fresh link: ResumeTenant returns
// the worker's watermark; the window prunes to it and retransmits the tail
// in order. Only after every tenant resumes is the link published for new
// Submits, so retransmitted tails and new events cannot interleave out of
// link order.
func (p *Proxy) resumeAll(l *wire.Writer) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProxyClosed
	}
	tenants := p.tenantListLocked()
	p.mu.Unlock()
	for _, t := range tenants {
		t.alarmMu.Lock()
		aidx := t.alarmIdx
		t.alarmMu.Unlock()
		frame, err := wire.AppendResumeTenant(nil, t.name, aidx)
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
		if res.ok.Watermark > t.acked {
			t.acked = res.ok.Watermark
			t.pruneLocked(res.ok.Watermark)
		}
		// Retransmit the whole unacked window, still under t.mu so a
		// concurrent Submit cannot interleave ahead of the tail.
		t.sent = 0
		p.flushTailLocked(l, t)
		retransmits := len(t.window)
		t.cond.Broadcast()
		t.mu.Unlock()
		p.mu.Lock()
		p.retransmits += uint64(retransmits)
		p.resumes++
		p.mu.Unlock()
	}
	// Publish: new Submits may now stream on this link.
	return p.install(l)
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
	case <-p.closeC:
		return ctlResult{}, ErrProxyClosed
	}
}

// control runs one user-initiated control op against the live link.
func (p *Proxy) control(op wire.ShardOp, tenant string, frames ...[]byte) (ctlResult, error) {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ctlResult{}, ErrProxyClosed
	}
	if p.gaveUp {
		p.mu.Unlock()
		return ctlResult{}, ErrLinkGaveUp
	}
	if p.state != LinkConnected || p.conn == nil {
		p.mu.Unlock()
		return ctlResult{}, ErrLinkDown
	}
	l := p.conn
	p.mu.Unlock()
	return p.roundTrip(l, &pendingCtl{op: op, tenant: tenant, ch: make(chan ctlResult, 1)}, frames...)
}

// Register creates a tenant on the worker from a checkpoint envelope and
// starts routing its alarms into sink. state nil means a fresh registration
// (model only); reject selects refuse-on-full-window backpressure for this
// tenant's Submits (otherwise they block until the window drains).
func (p *Proxy) Register(tenant string, model, state []byte, queue uint32, policy uint8, reject bool, sink func(wire.Alarm)) error {
	frames, err := p.envelopeFrames(tenant, 0, model, state, queue, policy)
	if err != nil {
		return err
	}
	t := &pxTenant{name: tenant, reject: reject, sink: sink}
	t.cond = sync.NewCond(&t.mu)
	p.mu.Lock()
	if _, dup := p.tenants[tenant]; dup {
		p.mu.Unlock()
		return fmt.Errorf("cluster: tenant %q already registered on this proxy", tenant)
	}
	p.tenants[tenant] = t
	t.gen = p.gen
	p.mu.Unlock()
	if _, err := p.control(wire.OpRegister, tenant, frames...); err != nil {
		p.mu.Lock()
		delete(p.tenants, tenant)
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	p.envBytesOut += uint64(len(model) + len(state))
	p.mu.Unlock()
	return nil
}

// envelopeFrames builds the RegisterTenant announce + chunk + commit
// sequence. extraFlags adds RegFlagSwap for model swaps.
func (p *Proxy) envelopeFrames(tenant string, extraFlags uint8, model, state []byte, queue uint32, policy uint8) ([][]byte, error) {
	flags := extraFlags
	if state != nil {
		flags |= wire.RegFlagHasState
	}
	reg, err := wire.AppendRegisterTenant(nil, wire.RegisterTenant{Tenant: tenant, Flags: flags, Queue: queue, Policy: policy})
	if err != nil {
		return nil, err
	}
	frames := [][]byte{reg}
	chunkSize := p.cfg.MaxFrame - 1024
	if chunkSize > 128<<10 {
		chunkSize = 128 << 10
	}
	for _, part := range []struct {
		kind uint8
		data []byte
	}{{wire.EnvModel, model}, {wire.EnvState, state}} {
		for _, piece := range chunked(part.data, chunkSize) {
			f, err := wire.AppendEnvelopeChunk(nil, wire.EnvelopeChunk{Tenant: tenant, Kind: part.kind, Data: piece})
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
	}
	done, err := wire.AppendTenantFrame(nil, wire.FrameEnvelopeDone, tenant)
	if err != nil {
		return nil, err
	}
	return append(frames, done), nil
}

// Swap hot-swaps the model under a running tenant.
func (p *Proxy) Swap(tenant string, model []byte) error {
	frames, err := p.envelopeFrames(tenant, wire.RegFlagSwap, model, nil, 0, 0)
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
	p.mu.Lock()
	t := p.tenants[tenant]
	p.mu.Unlock()
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
		t.nextLink++
		t.window = append(t.window, wire.BatchEvent{Link: t.nextLink, Ev: ev})
	}
	p.streamLocked(t)
	return len(evs), nil
}

// roomLocked waits until the tenant's window has a free slot, or reports
// why the next event is refused. Before a Block wait it streams the
// batch's events already banked: the acks that free the window answer
// them. Callers hold t.mu.
func (p *Proxy) roomLocked(t *pxTenant) error {
	for len(t.window) >= p.cfg.Window {
		if t.dropped {
			return ErrUnknownTenant
		}
		if p.isClosed() {
			return ErrProxyClosed
		}
		p.mu.Lock()
		gaveUp := p.gaveUp
		p.mu.Unlock()
		if gaveUp {
			return ErrLinkGaveUp
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
	frame, err := wire.AppendTenantFrame(nil, wire.FrameQuiesce, tenant)
	if err != nil {
		return err
	}
	_, err = p.control(wire.OpQuiesce, tenant, frame)
	return err
}

// Export fetches the tenant's checkpoint envelope from the worker.
func (p *Proxy) Export(tenant string) (model, state []byte, err error) {
	frame, err := wire.AppendTenantFrame(nil, wire.FrameExportEnvelope, tenant)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.control(wire.OpExport, tenant, frame)
	if err != nil {
		return nil, nil, err
	}
	return res.model, res.state, nil
}

// Flush force-closes the tenant's open anomaly chains; resulting abrupt
// alarms are dispatched before the reply arrives.
func (p *Proxy) Flush(tenant string) error {
	frame, err := wire.AppendTenantFrame(nil, wire.FrameFlushTenant, tenant)
	if err != nil {
		return err
	}
	_, err = p.control(wire.OpFlush, tenant, frame)
	return err
}

// Deregister removes the tenant from the worker and the proxy table.
func (p *Proxy) Deregister(tenant string) error {
	frame, err := wire.AppendTenantFrame(nil, wire.FrameDeregisterTenant, tenant)
	if err != nil {
		return err
	}
	if _, err := p.control(wire.OpDeregister, tenant, frame); err != nil {
		return err
	}
	p.mu.Lock()
	t := p.tenants[tenant]
	delete(p.tenants, tenant)
	p.mu.Unlock()
	if t != nil {
		t.mu.Lock()
		t.dropped = true
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	return nil
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
	if l, _ := p.current(); l != nil {
		l.TrySend(wire.AppendPing(nil))
	}
}

// Pending reports the total event count banked across tenant windows.
func (p *Proxy) Pending() int {
	p.mu.Lock()
	tenants := p.tenantListLocked()
	p.mu.Unlock()
	n := 0
	for _, t := range tenants {
		t.mu.Lock()
		n += len(t.window)
		t.mu.Unlock()
	}
	return n
}

// State reports the link state.
func (p *Proxy) State() LinkState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	pending := p.Pending()
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProxyStats{
		State:            p.state,
		Reconnects:       p.reconnects,
		Attempts:         p.attempts,
		Resumes:          p.resumes,
		Retransmits:      p.retransmits,
		Nacks:            p.nacksReceived,
		Alarms:           p.alarmsDispatched,
		DuplicateAlarms:  p.duplicateAlarms,
		Pending:          pending,
		EnvelopeBytesOut: p.envBytesOut,
		EnvelopeBytesIn:  p.envBytesIn,
	}
}

// backoff computes the wait before reconnect attempt n: BackoffMin doubled
// per attempt, capped at BackoffMax, plus up to 50% deterministic jitter.
func (p *Proxy) backoff(attempt int) time.Duration {
	d := p.cfg.BackoffMin
	for i := 0; i < attempt && d < p.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	p.rngMu.Lock()
	j := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.rngMu.Unlock()
	return d + j
}

// Close tears the proxy down: stops the reconnect machinery, closes the
// live link, wakes blocked Submits, and waits for all goroutines.
// Idempotent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	l := p.conn
	p.conn = nil
	tenants := p.tenantListLocked()
	close(p.closeC)
	p.mu.Unlock()
	p.completeCtl(ctlResult{err: ErrProxyClosed})
	if l != nil {
		// Finish discards what is pending: let it and the Bye out first.
		l.SendWait(wire.AppendBye(nil), time.Second)
		l.Finish()
	}
	for _, t := range tenants {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	p.wg.Wait()
	return nil
}
