package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is the serving side the wire server fronts. The facade adapts a
// causaliot.Host (hub or sharded fleet) to this surface; tests plug fakes.
type Backend interface {
	// Authenticate validates one connection's Hello. A non-nil error
	// refuses the connection (classified into the Nack code by the
	// server's Classify hook).
	Authenticate(token, tenant string) error
	// SubmitBatch enqueues evs for a tenant in order, stopping at the
	// first refusal: it returns how many events were admitted and, when
	// that is fewer than len(evs), the error refusing evs[admitted]. The
	// events after it are not attempted. Errors are classified and
	// surfaced to the producer as Nack frames; they never stop the
	// connection.
	SubmitBatch(tenant string, evs []Event) (admitted int, err error)
	// RouteAlarms directs the tenant's alarms into sink until replaced or
	// cleared with a nil sink. The sink is invoked on the tenant's stream
	// thread and must not block.
	RouteAlarms(tenant string, sink func(Alarm)) error
}

// ServerConfig tunes a wire server.
type ServerConfig struct {
	// Backend serves the authenticated traffic. Required.
	Backend Backend
	// Classify maps a Backend error to the Nack code sent to the
	// producer; nil classifies everything as CodeInternal.
	Classify func(error) Code
	// MaxFrame caps accepted frame sizes; <= 0 selects DefaultMaxFrame.
	MaxFrame int
	// AlarmBuffer sizes each connection's outbound alarm queue. When the
	// queue is full (a producer not draining its read side), further
	// alarms for that connection are dropped and counted in
	// Stats.AlarmsDropped. Defaults to 256.
	AlarmBuffer int
	// HelloTimeout bounds how long a fresh connection may sit silent
	// before its Hello. Defaults to 10s.
	HelloTimeout time.Duration
	// IdleTimeout evicts an authenticated connection that delivers no
	// frame for this long — a wedged or half-dead producer must not hold
	// a reader goroutine forever. Session clients keep quiet links alive
	// with Ping frames. <= 0 applies the 2-minute default; set negative
	// via NoIdleTimeout semantics is not supported — use a large value to
	// effectively disable.
	IdleTimeout time.Duration
	// WriteTimeout bounds each socket write; a peer that stops reading
	// (TCP window collapsed) is evicted instead of wedging the writer
	// goroutine. Defaults to 30s.
	WriteTimeout time.Duration
	// AckEvery is the cumulative-acknowledgement cadence for session
	// connections: an Ack frame once at least this many events were
	// decided since the last one. It is a floor, as a frame gets at most
	// one Ack. Defaults to 32.
	AckEvery int
	// SessionAlarmBuffer caps each session's undelivered-alarm replay
	// ring. Overflow evicts the oldest unconfirmed alarm and counts it in
	// Stats.AlarmsDropped. Defaults to AlarmBuffer.
	SessionAlarmBuffer int
	// MaxSessions caps the session table; a Resume beyond it is refused.
	// Defaults to 65536.
	MaxSessions int
	// Logf receives operational log lines (first alarm drop per
	// connection, refused Hellos); nil disables logging.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.AlarmBuffer <= 0 {
		c.AlarmBuffer = 256
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
	if c.SessionAlarmBuffer <= 0 {
		c.SessionAlarmBuffer = c.AlarmBuffer
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 65536
	}
	if c.Classify == nil {
		c.Classify = func(error) Code { return CodeInternal }
	}
	return c
}

// ServerStats is a point-in-time snapshot of a wire server's counters.
type ServerStats struct {
	// ActiveConns is the number of currently authenticated connections;
	// Conns counts every connection ever accepted.
	ActiveConns int
	Conns       uint64
	// Events counts event frames admitted to the backend; Nacks the
	// refused ones; Duplicates the frames dropped at a session watermark
	// because an earlier connection already delivered them (acknowledged
	// to the producer, never re-admitted). Every event frame received is
	// exactly one of the three: accepted == admitted + duplicates.
	Events     uint64
	Nacks      uint64
	Duplicates uint64
	// Retransmits counts EventRetx frames received — the session tail a
	// reconnecting producer replays (each lands as an admission, a Nack,
	// or a Duplicate like any other event frame).
	Retransmits uint64
	// Sessions is the current session-table size; Resumes counts accepted
	// Resume frames (session attach or re-attach).
	Sessions int
	Resumes  uint64
	// EvictedIdle counts connections cut by the read-idle or write
	// deadline — wedged peers reaped instead of held forever.
	EvictedIdle uint64
	// Alarms counts alarm frames pushed to live producers at raise time;
	// AlarmsBuffered the alarms banked in a session's replay ring while
	// no (responsive) connection was attached; AlarmReplays the ring
	// entries re-pushed after a Resume. AlarmsDropped counts alarms lost
	// for real: a plain connection's full queue, or a session ring
	// overflowing with unconfirmed alarms.
	Alarms         uint64
	AlarmsBuffered uint64
	AlarmReplays   uint64
	AlarmsDropped  uint64
	// AuthFailures counts refused Hellos.
	AuthFailures uint64
}

// session is the durable per-(tenant, name) state that outlives any one
// connection: the decided-event watermark for exactly-once admission, and a
// bounded ring of unconfirmed alarms replayed on resume.
//
// Two mutexes split the two concerns deliberately: evMu is held across
// Backend.SubmitBatch (which may block under a Block backpressure policy),
// and the alarm sink — invoked on the tenant's stream thread, which must
// never wait behind a blocked SubmitBatch — takes only alarmMu.
type session struct {
	tenant, name string

	evMu      sync.Mutex
	watermark uint64 // highest Seq decided (admitted or nacked)
	sinceAck  int

	alarmMu  sync.Mutex
	conn     *srvConn // connection currently attached; nil while orphaned
	alarmSeq uint64   // last assigned session-alarm index
	ring     []sessAlarm
	ringCap  int
}

// sessAlarm is one banked alarm: its session index and the pre-encoded
// SessionAlarm frame (replay is a straight enqueue, no re-encoding).
type sessAlarm struct {
	idx   uint64
	frame []byte
}

func sessionKey(tenant, name string) string { return tenant + "\x00" + name }

// Server accepts wire connections and bridges them onto a Backend. All
// methods are safe for concurrent use.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*srvConn]struct{}
	owners   map[string]*srvConn // tenant → plain connection receiving its alarms
	sessions map[string]*session
	closed   bool

	active         atomic.Int64
	totalConns     atomic.Uint64
	events         atomic.Uint64
	nacks          atomic.Uint64
	duplicates     atomic.Uint64
	retransmits    atomic.Uint64
	resumes        atomic.Uint64
	evictedIdle    atomic.Uint64
	alarms         atomic.Uint64
	alarmsBuffered atomic.Uint64
	alarmReplays   atomic.Uint64
	alarmsDropped  atomic.Uint64
	authFailures   atomic.Uint64
}

// NewServer creates a wire server over a backend; call Serve with one or
// more listeners to start accepting.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("wire: server with nil backend")
	}
	return &Server{
		cfg:      cfg.withDefaults(),
		lns:      make(map[net.Listener]struct{}),
		conns:    make(map[*srvConn]struct{}),
		owners:   make(map[string]*srvConn),
		sessions: make(map[string]*session),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the listener fails or the server
// is closed; a clean Close returns nil. Serve may be called concurrently
// with multiple listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.totalConns.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(nc)
		}()
	}
}

// Close stops accepting, closes every live connection (including half-open
// ones still waiting for their Hello), drops all session state, and
// unroutes every alarm sink. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
	// Orphaned sessions hold their tenants' alarm routes (banking alarms
	// for a resume that will never come now); restore default delivery.
	for _, sess := range sessions {
		_ = s.cfg.Backend.RouteAlarms(sess.tenant, nil)
	}
	return nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	nsess := len(s.sessions)
	s.mu.Unlock()
	return ServerStats{
		ActiveConns:    int(s.active.Load()),
		Conns:          s.totalConns.Load(),
		Events:         s.events.Load(),
		Nacks:          s.nacks.Load(),
		Duplicates:     s.duplicates.Load(),
		Retransmits:    s.retransmits.Load(),
		Sessions:       nsess,
		Resumes:        s.resumes.Load(),
		EvictedIdle:    s.evictedIdle.Load(),
		Alarms:         s.alarms.Load(),
		AlarmsBuffered: s.alarmsBuffered.Load(),
		AlarmReplays:   s.alarmReplays.Load(),
		AlarmsDropped:  s.alarmsDropped.Load(),
		AuthFailures:   s.authFailures.Load(),
	}
}

// srvConn is one accepted connection: a reader loop (this goroutine), a
// Writer serializing Welcome, Ack, Nack and Alarm frames, and — once
// authenticated — an alarm route claimed on the backend, either directly
// (plain v1 connection) or through a durable session.
type srvConn struct {
	srv    *Server
	nc     net.Conn
	w      *Writer // outbound frames toward the producer
	tenant string
	sess   *session // attached by a Resume frame; nil on plain connections
	clean  bool     // Bye received: teardown retires the session

	// Reader-loop scratch, reused for every event frame: the decoded
	// events and the Nack and Ack frames one decision answers with.
	evs []Event
	out []byte

	alarmDropLogged atomic.Bool
}

func (s *Server) handle(nc net.Conn) {
	c := &srvConn{srv: s, nc: nc}
	c.w = NewWriter(nc, s.cfg.AlarmBuffer, 0, s.cfg.WriteTimeout, func() {
		s.evictedIdle.Add(1)
		s.logf("wire: evicting %s (tenant %q): write stalled past %v", nc.RemoteAddr(), c.tenant, s.cfg.WriteTimeout)
	})
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.w.Finish()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	authed := false
	defer func() {
		c.w.Finish()
		s.teardown(c)
		// Only now has the connection let go of its session: a caller
		// that saw ActiveConns drop finds alarms banked, not pushed.
		if authed {
			s.active.Add(-1)
		}
	}()

	r := NewReader(nc, s.cfg.MaxFrame)
	nc.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	sessionIntent, refusal, err := s.hello(c, r)
	if err != nil {
		// Count the refusal before its Nack is queued: a client that has
		// read the Nack must find it in Stats.
		s.authFailures.Add(1)
		if refusal != nil {
			c.nackClose(*refusal)
		}
		return
	}
	// The Hello deadline is cleared symmetrically: the read loop below
	// re-arms its own idle deadline before every read.
	nc.SetReadDeadline(time.Time{})
	s.active.Add(1)
	authed = true
	s.readLoop(c, r, sessionIntent)
}

// teardown unwinds one connection's registrations. A plain connection
// releases its alarm route back to default delivery; a session connection
// only detaches — the session keeps the route and banks alarms for the
// resume — unless a Bye retired it (clean departure restores defaults).
func (s *Server) teardown(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	sess := c.sess
	if sess == nil {
		if c.tenant != "" && s.owners[c.tenant] == c {
			delete(s.owners, c.tenant)
			s.mu.Unlock()
			// Route the tenant's alarms back to the host's default
			// delivery; a newer connection for the same tenant already
			// rerouted them and is skipped above.
			_ = s.cfg.Backend.RouteAlarms(c.tenant, nil)
			return
		}
		s.mu.Unlock()
		return
	}
	retire := false
	sess.alarmMu.Lock()
	if sess.conn == c {
		sess.conn = nil
		retire = c.clean
	}
	sess.alarmMu.Unlock()
	if retire {
		delete(s.sessions, sessionKey(sess.tenant, sess.name))
	}
	s.mu.Unlock()
	if retire {
		_ = s.cfg.Backend.RouteAlarms(sess.tenant, nil)
	}
}

// nackClose sends one final Nack and waits (bounded) for it to reach the
// socket before the deferred close tears the connection down.
func (c *srvConn) nackClose(n Nack) {
	if frame, err := AppendNack(nil, n); err == nil {
		c.w.SendWait(frame, time.Second)
	}
}

// hello performs the authentication handshake; any error means the
// connection is refused, with refusal (when non-nil) the Nack to send
// before closing. sessionIntent reports a client that announced it will
// Resume: its alarm route is claimed by the session attach instead of
// here, so no alarm can slip past the session's replay ring between
// Welcome and Resume.
func (s *Server) hello(c *srvConn, r *Reader) (sessionIntent bool, refusal *Nack, err error) {
	t, p, err := r.Next()
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return false, &Nack{Code: CodeProtocol, Detail: err.Error()}, err
		}
		return false, nil, err
	}
	if t != FrameHello {
		return false, &Nack{Code: CodeProtocol, Detail: fmt.Sprintf("expected hello, got %s", t)}, fmt.Errorf("%w: first frame %s", ErrBadFrame, t)
	}
	ver, token, tenant, sessionIntent, err := ParseHello(p)
	if err != nil {
		return false, &Nack{Code: CodeProtocol, Detail: "malformed hello"}, err
	}
	if ver != Version {
		return false, &Nack{Code: CodeProtocol, Detail: fmt.Sprintf("protocol version %d, want %d", ver, Version)}, fmt.Errorf("%w: version %d", ErrBadFrame, ver)
	}
	if err := s.cfg.Backend.Authenticate(token, tenant); err != nil {
		s.logf("wire: refused connection from %s for tenant %q: %v", c.nc.RemoteAddr(), tenant, err)
		return false, &Nack{Code: s.cfg.Classify(err), Detail: "authentication rejected"}, err
	}
	if !sessionIntent {
		if err := s.claimAlarms(tenant, c); err != nil {
			s.logf("wire: refused connection from %s: %v", c.nc.RemoteAddr(), err)
			return false, &Nack{Code: s.cfg.Classify(err), Detail: err.Error()}, err
		}
	}
	c.tenant = tenant
	c.w.Send(AppendWelcome(nil, uint32(s.cfg.MaxFrame), CapEventBatch))
	return sessionIntent, nil, nil
}

// claimAlarms routes the tenant's alarms to this plain connection,
// displacing a previous connection for the same tenant (the newest
// producer wins).
func (s *Server) claimAlarms(tenant string, c *srvConn) error {
	s.mu.Lock()
	prev, hadPrev := s.owners[tenant]
	s.owners[tenant] = c
	s.mu.Unlock()
	err := s.cfg.Backend.RouteAlarms(tenant, func(a Alarm) { s.pushAlarm(c, a) })
	if err != nil {
		s.mu.Lock()
		if s.owners[tenant] == c {
			if hadPrev {
				s.owners[tenant] = prev
			} else {
				delete(s.owners, tenant)
			}
		}
		s.mu.Unlock()
		return err
	}
	return nil
}

// attachSession binds c to the (tenant, name) session, creating it on
// first use, and routes the tenant's alarms through the session sink. It
// returns the encoded ResumeOK and the banked alarm frames to replay.
func (s *Server) attachSession(c *srvConn, name string, alarmIdx uint64) (resumeOK []byte, replay [][]byte, err error) {
	key := sessionKey(c.tenant, name)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, errors.New("wire: server closed")
	}
	sess, ok := s.sessions[key]
	if !ok {
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("wire: session table full (%d sessions)", s.cfg.MaxSessions)
		}
		sess = &session{tenant: c.tenant, name: name, ringCap: s.cfg.SessionAlarmBuffer}
		s.sessions[key] = sess
	}
	// A plain connection may still own this tenant's alarm route; the
	// session claim below displaces it at the backend, so drop the stale
	// owner entry to keep that connection's teardown from clearing the
	// session's route later.
	delete(s.owners, c.tenant)
	s.mu.Unlock()

	sess.alarmMu.Lock()
	// The client's receipt index confirms everything at or below it;
	// prune, then snapshot the tail to replay.
	sess.pruneLocked(alarmIdx)
	for _, sa := range sess.ring {
		replay = append(replay, sa.frame)
	}
	sess.conn = c
	aidx := sess.alarmSeq
	sess.alarmMu.Unlock()

	sess.evMu.Lock()
	wm := sess.watermark
	sess.evMu.Unlock()

	if err := s.cfg.Backend.RouteAlarms(c.tenant, s.sessionSink(sess)); err != nil {
		sess.alarmMu.Lock()
		if sess.conn == c {
			sess.conn = nil
		}
		sess.alarmMu.Unlock()
		return nil, nil, err
	}
	c.sess = sess
	s.resumes.Add(1)
	return AppendResumeOK(nil, wm, aidx), replay, nil
}

// pruneLocked drops ring entries the client has confirmed. Callers hold
// alarmMu.
func (sess *session) pruneLocked(idx uint64) {
	keep := 0
	for ; keep < len(sess.ring) && sess.ring[keep].idx <= idx; keep++ {
	}
	if keep > 0 {
		sess.ring = append(sess.ring[:0], sess.ring[keep:]...)
	}
}

// sessionSink banks every alarm in the session's replay ring and pushes it
// to the attached connection when one is listening. Runs on the tenant's
// stream thread: never blocks, never touches evMu.
func (s *Server) sessionSink(sess *session) func(Alarm) {
	return func(a Alarm) {
		sess.alarmMu.Lock()
		sess.alarmSeq++
		idx := sess.alarmSeq
		frame, err := AppendSessionAlarm(nil, idx, a)
		if err != nil {
			sess.alarmMu.Unlock()
			s.alarmsDropped.Add(1)
			return
		}
		if len(sess.ring) >= sess.ringCap {
			// Every ring entry is unconfirmed (receipts pruned it), so an
			// eviction is a real, counted loss — never silent.
			sess.ring = append(sess.ring[:0], sess.ring[1:]...)
			s.alarmsDropped.Add(1)
		}
		sess.ring = append(sess.ring, sessAlarm{idx: idx, frame: frame})
		c := sess.conn
		sess.alarmMu.Unlock()
		if c == nil {
			s.alarmsBuffered.Add(1)
			return
		}
		if c.w.TrySend(frame) {
			s.alarms.Add(1)
			return
		}
		// Queue full on a live connection: the alarm stays banked in the
		// ring and reaches the producer on its next resume.
		s.alarmsBuffered.Add(1)
		if c.alarmDropLogged.CompareAndSwap(false, true) {
			s.logf("wire: alarm queue full for tenant %q on %s; banked for replay (first occurrence — producer not reading, or raise AlarmBuffer)",
				c.tenant, c.nc.RemoteAddr())
		}
	}
}

// pushAlarm encodes one alarm onto a plain connection's outbound queue. It
// runs on the tenant's stream thread: never block, count what cannot be
// sent.
func (s *Server) pushAlarm(c *srvConn, a Alarm) {
	frame, err := AppendAlarm(nil, a)
	if err != nil {
		s.alarmsDropped.Add(1)
		return
	}
	if c.w.TrySend(frame) {
		s.alarms.Add(1)
		return
	}
	s.alarmsDropped.Add(1)
	if c.alarmDropLogged.CompareAndSwap(false, true) {
		s.logf("wire: alarm queue full for tenant %q on %s; dropping (first drop — producer not reading, or raise AlarmBuffer)",
			c.tenant, c.nc.RemoteAddr())
	}
}

// decide is the one admission path of every event frame (Event, EventRetx
// and EventBatch alike). On a session connection it takes evMu once for the
// frame, counts the prefix at or below the watermark as duplicates
// (acknowledged, never re-admitted), and admits the rest in order; every
// decided event advances the watermark, and the frame earns at most one
// cumulative Ack. It returns false only when the connection must close.
func (s *Server) decide(c *srvConn, evs []Event, retx bool) bool {
	if retx {
		s.retransmits.Add(uint64(len(evs)))
	}
	c.out = c.out[:0]
	sess := c.sess
	if sess == nil {
		s.submit(c, evs)
		if len(c.out) > 0 {
			c.w.Send(c.out)
		}
		return true
	}
	sess.evMu.Lock()
	dup := 0
	for dup < len(evs) && evs[dup].Seq <= sess.watermark {
		dup++
	}
	fresh := evs[dup:]
	for i := 1; i < len(fresh); i++ {
		if fresh[i].Seq <= fresh[i-1].Seq {
			sess.evMu.Unlock()
			c.nackClose(Nack{Code: CodeProtocol, Detail: ErrSeqOrder.Error()})
			return false
		}
	}
	s.duplicates.Add(uint64(dup))
	// evMu stays held across SubmitBatch: a zombie connection racing the
	// resumed one serializes here, keeping admission exactly-once and in
	// sequence order. The alarm path never takes evMu, so a Block policy
	// waiting out a full queue cannot deadlock the stream thread.
	s.submit(c, fresh)
	if len(fresh) > 0 {
		sess.watermark = fresh[len(fresh)-1].Seq
	}
	sess.sinceAck += len(evs)
	if sess.sinceAck >= s.cfg.AckEvery {
		sess.sinceAck = 0
		c.out = AppendAck(c.out, sess.watermark)
	}
	sess.evMu.Unlock()
	if len(c.out) > 0 {
		c.w.Send(c.out)
	}
	return true
}

// submit hands evs to the backend, resuming past each refusal, and appends
// one Nack per refused event to c.out. Counters move before the frames are
// sent, so a producer that has read a Nack finds it in Stats.
func (s *Server) submit(c *srvConn, evs []Event) {
	for len(evs) > 0 {
		n, err := s.cfg.Backend.SubmitBatch(c.tenant, evs)
		if err == nil {
			s.events.Add(uint64(len(evs)))
			return
		}
		n = min(n, len(evs)-1)
		s.events.Add(uint64(n))
		s.nacks.Add(1)
		if out, ferr := AppendNack(c.out, Nack{Seq: evs[n].Seq, Code: s.cfg.Classify(err), Detail: err.Error()}); ferr == nil {
			c.out = out
		}
		evs = evs[n+1:]
	}
}

func (s *Server) readLoop(c *srvConn, r *Reader, sessionIntent bool) {
	var names Names
	idle := s.cfg.IdleTimeout
	var deadlineAt time.Time
	for {
		// Re-arm the idle deadline lazily: a syscall only when more than
		// half the window has burned, so a hot stream pays ~one
		// SetReadDeadline per half-window, not one per frame.
		if idle > 0 {
			now := time.Now()
			if deadlineAt.Sub(now) <= idle/2 {
				deadlineAt = now.Add(idle)
				c.nc.SetReadDeadline(deadlineAt)
			}
		}
		t, p, err := r.Next()
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				c.nackClose(Nack{Code: CodeProtocol, Detail: err.Error()})
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.evictedIdle.Add(1)
				s.logf("wire: evicting %s (tenant %q): no frame in %v", c.nc.RemoteAddr(), c.tenant, idle)
			} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: connection %s (tenant %q): %v", c.nc.RemoteAddr(), c.tenant, err)
			}
			return
		}
		// A session-intent connection must attach before anything else so
		// its alarm route never dangles.
		if sessionIntent && c.sess == nil && t != FrameResume && t != FrameBye && t != FramePing {
			c.nackClose(Nack{Code: CodeProtocol, Detail: fmt.Sprintf("expected resume, got %s", t)})
			return
		}
		switch t {
		case FrameEvent, FrameEventRetx:
			ev, err := names.ParseEvent(p)
			if err != nil {
				c.nackClose(Nack{Code: CodeProtocol, Detail: "malformed event"})
				return
			}
			c.evs = append(c.evs[:0], ev)
			if !s.decide(c, c.evs, t == FrameEventRetx) {
				return
			}
		case FrameEventBatch:
			if c.evs, err = names.ParseEventBatch(p, c.evs[:0]); err != nil {
				c.nackClose(Nack{Code: CodeProtocol, Detail: "malformed event batch"})
				return
			}
			if !s.decide(c, c.evs, false) {
				return
			}
		case FrameResume:
			if c.sess != nil {
				c.nackClose(Nack{Code: CodeProtocol, Detail: "duplicate resume"})
				return
			}
			name, alarmIdx, err := ParseResume(p)
			if err != nil {
				c.nackClose(Nack{Code: CodeProtocol, Detail: "malformed resume"})
				return
			}
			resumeOK, replay, err := s.attachSession(c, name, alarmIdx)
			if err != nil {
				c.nackClose(Nack{Code: s.cfg.Classify(err), Detail: err.Error()})
				s.logf("wire: refused resume from %s (tenant %q, session %q): %v",
					c.nc.RemoteAddr(), c.tenant, name, err)
				return
			}
			c.w.Send(resumeOK)
			for _, frame := range replay {
				s.alarmReplays.Add(1)
				c.w.Send(frame)
			}
		case FrameAlarmAck:
			idx, err := ParseAlarmAck(p)
			if err != nil || c.sess == nil {
				c.nackClose(Nack{Code: CodeProtocol, Detail: "unexpected alarm-ack"})
				return
			}
			c.sess.alarmMu.Lock()
			c.sess.pruneLocked(idx)
			c.sess.alarmMu.Unlock()
		case FramePing:
			// A session's Ping also flushes the cumulative ack: the tail
			// below the AckEvery cadence would otherwise sit unacked in the
			// producer's retransmit window forever once the stream goes
			// quiet.
			if sess := c.sess; sess != nil {
				sess.evMu.Lock()
				sess.sinceAck = 0
				ack := AppendAck(nil, sess.watermark)
				sess.evMu.Unlock()
				c.w.Send(ack)
			}
			c.w.Send(AppendPong(nil))
		case FrameBye:
			c.clean = true
			return
		default:
			c.nackClose(Nack{Code: CodeProtocol, Detail: fmt.Sprintf("unexpected %s frame", t)})
			return
		}
	}
}
