package causaliot

import (
	"crypto/subtle"
	"errors"
	"net"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// Network serving errors. ErrFrameTooLarge marks a frame whose length
// prefix exceeds the server's limit; ErrBadFrame a malformed or truncated
// frame (or a protocol-version mismatch); ErrBadAuth a connection refused
// by token authentication. All are errors.Is-matchable; the internal wire
// package never leaks its own sentinel identities past these aliases.
var (
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	ErrBadFrame      = wire.ErrBadFrame
	ErrBadAuth       = wire.ErrBadAuth
)

// WireConfig tunes a network ingestion server. The zero value serves
// unauthenticated connections with the default limits.
type WireConfig struct {
	// Token is the shared secret every connection's Hello must present
	// (compared in constant time). Empty accepts any token — loopback and
	// test use only.
	Token string
	// MaxFrame caps accepted frame sizes; <= 0 selects the wire protocol
	// default (1 MiB).
	MaxFrame int
	// AlarmBuffer sizes each connection's outbound frame queue and each
	// session's undelivered-alarm replay ring. An alarm a full queue
	// refuses (a producer not draining its read side) waits in the ring;
	// ring overflow evicts the oldest unconfirmed alarm into
	// WireStats.AlarmsDropped. Defaults to 256.
	AlarmBuffer int
	// HelloTimeout bounds how long a fresh connection may sit silent
	// before authenticating. Defaults to 10s.
	HelloTimeout time.Duration
	// IdleTimeout evicts an authenticated connection that delivers no
	// frame for this long (session clients keep quiet links alive with
	// Ping frames). Defaults to 2m.
	IdleTimeout time.Duration
	// WriteTimeout bounds each socket write; a peer that stops reading is
	// evicted instead of wedging the writer. Defaults to 30s.
	WriteTimeout time.Duration
	// AckEvery is the cumulative-acknowledgement cadence: one Ack per this
	// many decided events. Defaults to 32.
	AckEvery int
	// MaxSessions caps the durable session table; a Resume beyond it is
	// refused. Defaults to 65536.
	MaxSessions int
	// Logf receives operational log lines (refused connections, first
	// full alarm queue per session); nil disables logging.
	Logf func(format string, args ...any)
}

// WireStats is a point-in-time snapshot of a wire server's counters: the
// wire server's own stats type, so the two never drift apart.
type WireStats = wire.ServerStats

// WireServer puts a Host on the network: producers connect over TCP, bind
// each connection to one home with an authenticated Hello, attach a
// resumable session with a Resume, and stream length-prefixed binary event
// frames. Backpressure is end-to-end — an event the host refuses (full
// queue under BackpressureReject, quarantine, shutdown) comes back to the
// producer as a Nack frame carrying the event's sequence number and a
// reason code — and the home's alarms are pushed back over the same
// connection as SessionAlarm frames, banked in the session and replayed
// after a reconnect until the producer confirms them. A connection that
// attaches no session is refused. See DESIGN.md §9 for the frame layouts.
//
// The server works identically over a single Hub or a sharded Fleet, and a
// session's alarm push-back follows its home across live migrations.
type WireServer struct {
	srv *wire.Server
}

// NewWireServer builds a network ingestion server over a host; call Serve
// with a listener to start accepting.
func NewWireServer(h Host, cfg WireConfig) (*WireServer, error) {
	if h == nil {
		return nil, errors.New("causaliot: wire server with nil host")
	}
	srv, err := wire.NewServer(wire.ServerConfig{
		Backend:      &hostBackend{host: h, token: cfg.Token},
		Classify:     classifyWireError,
		MaxFrame:     cfg.MaxFrame,
		AlarmBuffer:  cfg.AlarmBuffer,
		HelloTimeout: cfg.HelloTimeout,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
		AckEvery:     cfg.AckEvery,
		MaxSessions:  cfg.MaxSessions,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &WireServer{srv: srv}, nil
}

// Serve accepts connections on ln until the listener fails or the server is
// closed; a clean Close returns nil. Serve may be called concurrently with
// multiple listeners.
func (s *WireServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops accepting, closes every live connection, drops every session,
// and restores their homes' default alarm delivery. Close does not close the underlying host.
// Idempotent.
func (s *WireServer) Close() error { return s.srv.Close() }

// Stats snapshots the server's counters.
func (s *WireServer) Stats() WireStats { return s.srv.Stats() }

// hostBackend adapts a Host to the wire server's Backend surface.
type hostBackend struct {
	host  Host
	token string
}

func (b *hostBackend) Authenticate(token, tenant string) error { return checkToken(b.token, token) }

// checkToken admits got when want is empty or got equals it, comparing in
// constant time so the check leaks no prefix of the token.
func checkToken(want, got string) error {
	if want != "" && subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
		return ErrBadAuth
	}
	return nil
}

// SubmitBatch takes the batch path (one lookup and one queue or route lock
// per batch) only on the package's own hosts. Any other Host — a decorator
// wrapping one, say — gets one Submit per event, so it still sees every
// event.
func (b *hostBackend) SubmitBatch(tenant string, evs []wire.Event) (int, error) {
	switch h := b.host.(type) {
	case *Hub:
		return h.inner.SubmitBatch(tenant, evs)
	case *Fleet:
		return h.submitBatch(tenant, evs)
	}
	for i, ev := range evs {
		if err := b.host.Submit(tenant, ev); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

func (b *hostBackend) RouteAlarms(tenant string, sink func(wire.Alarm)) error {
	if sink == nil {
		err := b.host.SetAlarmRoute(tenant, nil)
		if errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrHubClosed) {
			// Teardown racing a deregistration or host shutdown: the route
			// is already gone.
			return nil
		}
		return err
	}
	return b.host.SetAlarmRoute(tenant, func(ta TenantAlarm) { sink(*ta.Alarm) })
}

// classifyWireError maps a host error onto the Nack code a producer
// receives, through the facade sentinels so wrapping never hides the cause.
func classifyWireError(err error) wire.Code {
	switch {
	case errors.Is(err, ErrBackpressure):
		return wire.CodeBackpressure
	case errors.Is(err, ErrQuarantined):
		return wire.CodeQuarantined
	case errors.Is(err, ErrUnknownTenant):
		return wire.CodeUnknownTenant
	case errors.Is(err, ErrUnknownDevice):
		return wire.CodeUnknownDevice
	case errors.Is(err, ErrValueOutOfRange):
		return wire.CodeValueOutOfRange
	case errors.Is(err, ErrHubClosed):
		return wire.CodeClosed
	case errors.Is(err, ErrBadAuth):
		return wire.CodeBadAuth
	default:
		return wire.CodeInternal
	}
}
