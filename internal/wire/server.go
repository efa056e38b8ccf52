package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
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
	// AlarmBuffer sizes each connection's outbound frame queue and each
	// session's undelivered-alarm replay ring. An alarm a full queue
	// refuses (a producer not draining its read side) waits in the ring;
	// ring overflow evicts the oldest unconfirmed alarm and counts it in
	// Stats.AlarmsDropped. Defaults to 256.
	AlarmBuffer int
	// HelloTimeout bounds how long a fresh connection may sit silent
	// before its Hello. Defaults to 10s.
	HelloTimeout time.Duration
	// IdleTimeout evicts an authenticated connection that delivers no
	// frame for this long — a wedged or half-dead producer must not hold
	// a reader goroutine forever. Session clients keep quiet links alive
	// with Ping frames. <= 0 applies the 2-minute default; there is no
	// way to disable it, so use a large value instead.
	IdleTimeout time.Duration
	// WriteTimeout bounds each socket write; a peer that stops reading
	// (TCP window collapsed) is evicted instead of wedging the writer
	// goroutine. Defaults to 30s.
	WriteTimeout time.Duration
	// AckEvery is the cumulative-acknowledgement cadence: an Ack frame
	// once at least this many events were decided since the last one. It
	// is a floor, as a frame gets at most one Ack. Defaults to 32.
	AckEvery int
	// MaxSessions caps the session table; a Resume beyond it is refused.
	// Defaults to 65536.
	MaxSessions int
	// Logf receives operational log lines (first full alarm queue per
	// session, refused Hellos and Resumes); nil disables logging.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.AlarmBuffer <= 0 {
		c.AlarmBuffer = 256
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
	// entries re-pushed after a Resume or once a full queue had room
	// again. AlarmsDropped counts alarms lost for real: a session ring
	// overflowing with unconfirmed alarms, or an alarm that failed to
	// encode.
	Alarms         uint64
	AlarmsBuffered uint64
	AlarmReplays   uint64
	AlarmsDropped  uint64
	// AlarmReceipts counts the AlarmAck frames session producers sent.
	// Each is cumulative and rides a write the producer made anyway, so
	// it is far below the alarms delivered on a busy connection.
	AlarmReceipts uint64
	// AuthFailures counts refused Hellos.
	AuthFailures uint64
}

// session is the durable per-(tenant, name) receiving end that outlives any
// one connection: its decided-event watermark and alarm bank.
type session struct {
	tenant, name string
	rx           Receiver
	fullLogged   atomic.Bool // first alarm-queue-full logged
}

func sessionKey(tenant, name string) string { return tenant + "\x00" + name }

// Server accepts wire connections and bridges them onto a Backend: the
// session vocabulary over the resumable-stream core (Endpoint, Receiver).
// Every connection attaches a session; the newest session of a tenant
// holds the tenant's alarm route. All methods are safe for concurrent use.
type Server struct {
	cfg ServerConfig
	ep  *Endpoint

	mu       sync.Mutex
	sessions map[string]*session
	routes   map[string]*session // tenant → the session its alarm route feeds

	retransmits atomic.Uint64
	resumes     atomic.Uint64
}

// NewServer creates a wire server over a backend; call Serve with one or
// more listeners to start accepting.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("wire: server with nil backend")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg: cfg,
		ep: (&Endpoint{Name: "wire", HelloTimeout: cfg.HelloTimeout, IdleTimeout: cfg.IdleTimeout,
			WriteTimeout: cfg.WriteTimeout, MaxFrame: cfg.MaxFrame, OutBuffer: cfg.AlarmBuffer,
			AckEvery: cfg.AckEvery, AlarmRing: cfg.AlarmBuffer, Logf: cfg.Logf}).WithDefaults(),
		sessions: make(map[string]*session),
		routes:   make(map[string]*session),
	}, nil
}

// Serve accepts connections on ln until the listener fails or the server
// is closed; a clean Close returns nil. Serve may be called concurrently
// with multiple listeners.
func (s *Server) Serve(ln net.Listener) error {
	return s.ep.Serve(ln, func(w *Writer) Handler { return &srvConn{srv: s, nc: w.Conn(), w: w} })
}

// Close stops accepting, closes every live connection (including half-open
// ones still waiting for their Hello), drops all session state, and
// unroutes every alarm sink. Idempotent.
func (s *Server) Close() error {
	if !s.ep.Close() {
		return nil
	}
	s.mu.Lock()
	sessions := s.sessions
	s.sessions = nil // refuses later resumes
	s.mu.Unlock()
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
	e := s.ep
	return ServerStats{
		ActiveConns:    int(e.Active.Load()),
		Conns:          e.Accepted.Load(),
		Events:         e.Events.Load(),
		Nacks:          e.Nacks.Load(),
		Duplicates:     e.Duplicates.Load(),
		Retransmits:    s.retransmits.Load(),
		Sessions:       nsess,
		Resumes:        s.resumes.Load(),
		EvictedIdle:    e.EvictedIdle.Load(),
		Alarms:         e.Alarms.Load(),
		AlarmsBuffered: e.AlarmsBuffered.Load(),
		AlarmReplays:   e.AlarmReplays.Load(),
		AlarmsDropped:  e.AlarmsDropped.Load(),
		AlarmReceipts:  e.Receipts.Load(),
		AuthFailures:   e.AuthFailures.Load(),
	}
}

// srvConn is one accepted connection: the session vocabulary's Handler and
// Vocab. Its Writer serializes Welcome, ResumeOK, Ack, Nack and
// SessionAlarm frames; the Resume after its Hello attaches a durable
// session, which claims the tenant's alarm route.
type srvConn struct {
	srv    *Server
	nc     net.Conn
	w      *Writer // outbound frames toward the producer
	tenant string
	sess   *session // attached by the Resume frame
	clean  bool     // Bye received: teardown retires the session

	// Reader-loop scratch, reused for every event frame: the name table,
	// the decoded events and the Nack and Ack frames one decision answers
	// with.
	names Names
	evs   []Event
	out   []byte
}

func (c *srvConn) String() string { return fmt.Sprintf("%s (tenant %q)", c.nc.RemoteAddr(), c.tenant) }

// Teardown unwinds one connection's registrations. The connection only
// detaches from its session — the session keeps the route and banks alarms
// for the resume — unless a Bye retired it: a clean departure restores the
// tenant's default delivery, unless a newer session of the tenant took the
// route over. A connection refused before its Resume holds nothing.
func (c *srvConn) Teardown() {
	sess := c.sess
	if sess == nil {
		return
	}
	s := c.srv
	s.mu.Lock()
	retire := sess.rx.Detach(c.w) && c.clean
	unroute := retire && s.routes[sess.tenant] == sess
	if retire {
		delete(s.sessions, sessionKey(sess.tenant, sess.name))
	}
	if unroute {
		delete(s.routes, sess.tenant)
	}
	s.mu.Unlock()
	if unroute {
		_ = s.cfg.Backend.RouteAlarms(sess.tenant, nil)
	}
}

// ErrorFrame answers a refusal with a Nack.
func (c *srvConn) ErrorFrame(r Refusal) ([]byte, error) {
	return AppendNack(nil, Nack{Code: r.Code, Detail: r.Detail})
}

// Hello performs the authentication handshake. It refuses a Hello without
// the session byte: the alarm route is claimed by the Resume that must
// follow, so no alarm can slip past the session's bank between Welcome and
// Resume.
func (c *srvConn) Hello(r *Reader) error {
	s := c.srv
	t, p, err := r.Next()
	if err != nil {
		return err
	}
	if t != FrameHello {
		return Protocolf("expected hello, got %s", t)
	}
	ver, token, tenant, session, err := ParseHello(p)
	if err != nil {
		return Protocolf("malformed hello")
	}
	if ver != Version {
		return Protocolf("protocol version %d, want %d", ver, Version)
	}
	if !session {
		return Protocolf("session required: a Hello must carry the session byte and be followed by a Resume")
	}
	if err := s.cfg.Backend.Authenticate(token, tenant); err != nil {
		s.ep.Printf("refused connection from %s for tenant %q: %v", c.nc.RemoteAddr(), tenant, err)
		return Refusal{Code: s.cfg.Classify(err), Detail: "authentication rejected"}
	}
	c.tenant = tenant
	c.w.Send(AppendWelcome(nil, uint32(s.cfg.MaxFrame), CapEventBatch))
	return nil
}

// resume binds c to the (tenant, name) session, creating it on first use,
// routes the tenant's alarms into the session's bank, answers ResumeOK,
// and attaches c, replaying the alarms past the client's receipt. A session
// created here whose route is refused (an unknown tenant) is forgotten
// again, so refused resumes cannot fill the session table.
func (c *srvConn) resume(name string, receipt uint64) error {
	s := c.srv
	key := sessionKey(c.tenant, name)
	s.mu.Lock()
	if s.sessions == nil {
		s.mu.Unlock()
		return errors.New("wire: server closed")
	}
	sess, ok := s.sessions[key]
	if !ok {
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			return fmt.Errorf("wire: session table full (%d sessions)", s.cfg.MaxSessions)
		}
		sess = &session{tenant: c.tenant, name: name}
		s.sessions[key] = sess
	}
	s.mu.Unlock()
	err := s.cfg.Backend.RouteAlarms(c.tenant, func(a Alarm) {
		if sess.rx.Push(s.ep, a, AppendSessionAlarm) && sess.fullLogged.CompareAndSwap(false, true) {
			s.ep.Printf("alarm queue full for tenant %q session %q; banked for replay (first occurrence — producer not reading, or raise AlarmBuffer)", sess.tenant, sess.name)
		}
	})
	s.mu.Lock()
	if err == nil {
		s.routes[c.tenant] = sess
	} else if !ok {
		delete(s.sessions, key)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	c.sess = sess
	s.resumes.Add(1)
	wm, idx := sess.rx.Ack()
	c.w.Send(AppendResumeOK(nil, wm, idx))
	sess.rx.Attach(s.ep, c.w, receipt)
	return nil
}

// Seq, Submit, AppendNack and AppendAck make srvConn the session
// vocabulary of Decide.
func (c *srvConn) Seq(ev *Event) uint64 { return ev.Seq }

func (c *srvConn) Submit(evs []Event) (int, error) {
	return c.srv.cfg.Backend.SubmitBatch(c.tenant, evs)
}

func (c *srvConn) AppendNack(dst []byte, ev *Event, err error) []byte {
	if out, ferr := AppendNack(dst, Nack{Seq: ev.Seq, Code: c.srv.cfg.Classify(err), Detail: err.Error()}); ferr == nil {
		return out
	}
	return dst
}

func (c *srvConn) AppendAck(dst []byte, wm uint64) []byte { return AppendAck(dst, wm) }

// decide is the one admission path of every event frame (Event, EventRetx
// and EventBatch alike): Decide through the session's watermark. It returns
// false only when the frame's sequence numbers do not increase and the
// connection must close.
func (s *Server) decide(c *srvConn, evs []Event, retx bool) bool {
	if retx {
		s.retransmits.Add(uint64(len(evs)))
	}
	var err error
	if c.out, err = Decide(s.ep, &c.sess.rx, c, evs, c.out[:0]); err != nil {
		return false
	}
	if len(c.out) > 0 {
		c.w.Send(c.out)
	}
	return true
}

// Frame handles one frame after the Hello.
func (c *srvConn) Frame(t FrameType, p []byte) error {
	s := c.srv
	// A connection must attach its session before anything else so its
	// alarm route never dangles.
	if c.sess == nil && t != FrameResume && t != FrameBye && t != FramePing {
		return Protocolf("expected resume, got %s", t)
	}
	var err error
	switch t {
	case FrameEvent, FrameEventRetx:
		ev, err := c.names.ParseEvent(p)
		if err != nil {
			return Protocolf("malformed event")
		}
		c.evs = append(c.evs[:0], ev)
		if !s.decide(c, c.evs, t == FrameEventRetx) {
			return Protocolf("%v", ErrSeqOrder)
		}
	case FrameEventBatch:
		if c.evs, err = c.names.ParseEventBatch(p, c.evs[:0]); err != nil {
			return Protocolf("malformed event batch")
		}
		if !s.decide(c, c.evs, false) {
			return Protocolf("%v", ErrSeqOrder)
		}
	case FrameResume:
		if c.sess != nil {
			return Protocolf("duplicate resume")
		}
		name, receipt, err := ParseResume(p)
		if err != nil {
			return Protocolf("malformed resume")
		}
		if err := c.resume(name, receipt); err != nil {
			s.ep.Printf("refused resume from %s (tenant %q, session %q): %v", c.nc.RemoteAddr(), c.tenant, name, err)
			return Refusal{Code: s.cfg.Classify(err), Detail: err.Error()}
		}
	case FrameAlarmAck:
		// Cumulative: the producer coalesces its receipts onto its own
		// writes, so one frame may confirm many alarms.
		idx, err := ParseAlarmAck(p)
		if err != nil {
			return Protocolf("malformed alarm-ack")
		}
		s.ep.Receipts.Add(1)
		c.sess.rx.Confirm(idx)
	case FramePing:
		// A session's Ping also flushes the cumulative ack: the tail below
		// the AckEvery cadence would otherwise sit unacked in the
		// producer's retransmit window forever once the stream goes quiet.
		// Both replies are encoded into the reader's scratch and sent as
		// one frame run, which the writer copies.
		c.out = c.out[:0]
		if c.sess != nil {
			wm, _ := c.sess.rx.Ack()
			c.out = AppendAck(c.out, wm)
		}
		c.out = AppendPong(c.out)
		c.w.Send(c.out)
	case FrameBye:
		c.clean = true
		return io.EOF
	default:
		return Protocolf("unexpected %s frame", t)
	}
	return nil
}
