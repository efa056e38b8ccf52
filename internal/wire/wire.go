// Package wire implements the network ingestion protocol: a compact
// length-prefixed binary event frame over any byte stream (in production a
// TCP connection), with explicit end-to-end backpressure. A producer opens
// a session: a Hello authenticates the connection to one tenant and a Resume
// attaches a durable session that outlives the connection. It then streams
// EventBatch frames; the server answers a refused event (full queue under a
// Reject policy, tripped circuit breaker, unknown device) with a Nack frame
// carrying the event's producer-assigned sequence number, and pushes the
// tenant's alarms back over the same connection as SessionAlarm frames,
// banked for replay until the producer confirms them — nothing the serving
// side decides is ever silently swallowed.
//
// Frame layout (all integers big-endian):
//
//	uint32  length   // bytes that follow: 1 type byte + payload
//	uint8   type     // FrameHello, FrameWelcome, FrameEvent, ...
//	payload
//
// Strings are uint16-length-prefixed UTF-8. A frame whose length field
// exceeds the configured maximum is refused with ErrFrameTooLarge before
// any payload is read, so a corrupt or hostile length prefix cannot force
// an allocation. See DESIGN.md §9 for the full per-frame payload layouts.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/causaliot/causaliot/internal/event"
)

// Version is the protocol version spoken by this package; a Hello carrying
// any other version is refused with a CodeProtocol Nack.
const Version = 1

// DefaultMaxFrame is the frame size cap applied when a Reader or server is
// configured with a non-positive maximum. One event frame is ~30 bytes plus
// the device name; alarm frames grow with the chain length and its context,
// so the default leaves generous headroom.
const DefaultMaxFrame = 1 << 20

// Wire protocol errors.
var (
	// ErrFrameTooLarge reports a frame whose length prefix exceeds the
	// configured maximum; the stream is unrecoverable past it.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame reports a malformed frame: truncated payload, unknown
	// frame type where a specific one was required, or a protocol-version
	// mismatch.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrBadAuth reports a Hello rejected by the server's authentication.
	ErrBadAuth = errors.New("wire: authentication rejected")
	// ErrClientClosed reports an operation on a closed client.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrSendWindowFull reports a SessionClient whose bounded ring of
	// sent-but-unacknowledged events is full while the session is
	// degraded (a reconnect is in progress), or whose connection died
	// while Send waited for room; a connected Send waits instead. Typed
	// backpressure — the caller owns the retry; nothing is silently shed.
	ErrSendWindowFull = errors.New("wire: send window full")
	// ErrSessionGaveUp reports a SessionClient that exhausted its
	// reconnect attempts; every later Send and Err returns it.
	ErrSessionGaveUp = errors.New("wire: session gave up reconnecting")
	// ErrSeqOrder reports an event whose sequence number is not strictly
	// greater than the previous one; session resume is cumulative-ack
	// based, so a session producer must assign strictly increasing Seq.
	ErrSeqOrder = errors.New("wire: event sequence not strictly increasing")
)

// FrameType identifies a frame's payload layout.
type FrameType uint8

const (
	// FrameHello is the client's first frame: protocol version, auth
	// token, tenant name and the session byte. The connection is bound to
	// that tenant; a Hello without the session byte is refused.
	FrameHello FrameType = 1
	// FrameWelcome is the server's accept of a Hello: protocol version
	// and the server's frame size limit.
	FrameWelcome FrameType = 2
	// FrameEvent carries one device state report toward the server. The
	// server accepts it; Client sends EventBatch frames instead.
	FrameEvent FrameType = 3
	// FrameNack reports a refused Hello or event back to the producer,
	// with the event's sequence number and a reason code.
	FrameNack FrameType = 4
	// FrameBye announces a graceful client shutdown.
	FrameBye FrameType = 6
	// FrameResume joins the handshake right after Hello: it names a
	// durable session (scoped to the connection's tenant) whose event
	// watermark and undelivered-alarm tail survive connection death. The
	// payload carries the highest session-alarm index the client has
	// already received, so the server replays only the gap.
	FrameResume FrameType = 7
	// FrameResumeOK answers a Resume with the session's event watermark
	// (every Seq at or below it has been decided — admitted or Nacked) and
	// the server's current session-alarm index.
	FrameResumeOK FrameType = 8
	// FrameAck is the server's cumulative event acknowledgement for a
	// session connection: every event with Seq at or below the carried
	// value has been decided, so the producer may release it from its
	// retransmit ring.
	FrameAck FrameType = 9
	// FrameEventRetx carries an event retransmitted after a resume — the
	// payload is identical to FrameEvent; the distinct type keeps the
	// server's retransmit accounting honest.
	FrameEventRetx FrameType = 10
	// FramePing is an empty client keepalive; it refreshes the server's
	// read-idle deadline and is answered with a Pong.
	FramePing FrameType = 11
	// FramePong is the empty server reply to a Ping.
	FramePong FrameType = 12
	// FrameSessionAlarm pushes one detection alarm back to the producer,
	// tagged with the sequence number of the event that completed the
	// chain and prefixed with the session's monotonically increasing alarm
	// index, which a Resume echoes back so no alarm is lost to a dead
	// connection.
	FrameSessionAlarm FrameType = 13
	// FrameAlarmAck is the client's cumulative session-alarm receipt: the
	// server prunes its replay ring up to the carried index, so ring
	// evictions only ever discard alarms the client has not confirmed. A
	// session client does not write one per alarm: the highest index
	// received rides its next batch close, Flush or Ping, or goes out on
	// its own after ReceiptDelay (at once ReceiptLag alarms ahead).
	FrameAlarmAck FrameType = 14
	// FrameEventBatch carries several events in one frame: a u16 count,
	// then each event as an Event payload. A client sends it only to a
	// server whose Welcome announced CapEventBatch, and refuses any other.
	FrameEventBatch FrameType = 15
)

// CapEventBatch is the Welcome capability bit announcing that the server
// accepts FrameEventBatch. It rides a trailing byte that v1 clients ignore.
const CapEventBatch = 1 << 0

// MaxEventBatch caps the events a Client packs into one FrameEventBatch.
const MaxEventBatch = 64

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameEvent:
		return "event"
	case FrameNack:
		return "nack"
	case FrameBye:
		return "bye"
	case FrameResume:
		return "resume"
	case FrameResumeOK:
		return "resume-ok"
	case FrameAck:
		return "ack"
	case FrameEventRetx:
		return "event-retx"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameSessionAlarm:
		return "session-alarm"
	case FrameAlarmAck:
		return "alarm-ack"
	case FrameEventBatch:
		return "event-batch"
	case FrameShardHello:
		return "shard-hello"
	case FrameShardWelcome:
		return "shard-welcome"
	case FrameRegisterTenant:
		return "register-tenant"
	case FrameEnvelopeChunk:
		return "envelope-chunk"
	case FrameEnvelopeDone:
		return "envelope-done"
	case FrameTenantOK:
		return "tenant-ok"
	case FrameShardErr:
		return "shard-err"
	case FrameSubmitBatch:
		return "submit-batch"
	case FrameShardAck:
		return "shard-ack"
	case FrameShardNack:
		return "shard-nack"
	case FrameAlarmStream:
		return "alarm-stream"
	case FrameAlarmStreamAck:
		return "alarm-stream-ack"
	case FrameResumeTenant:
		return "resume-tenant"
	case FrameQuiesce:
		return "quiesce"
	case FrameExportEnvelope:
		return "export-envelope"
	case FrameDeregisterTenant:
		return "deregister-tenant"
	case FrameShardStatsReq:
		return "shard-stats-req"
	case FrameShardStats:
		return "shard-stats"
	case FrameDrain:
		return "drain"
	case FrameFlushTenant:
		return "flush-tenant"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Code is a Nack reason.
type Code uint8

const (
	// CodeBackpressure: the tenant's ingestion queue (or migration gap)
	// refused the event under a Reject policy. The producer owns the
	// retry decision — slow down, shed, or buffer.
	CodeBackpressure Code = 1
	// CodeQuarantined: the tenant's circuit breaker is tripped.
	CodeQuarantined Code = 2
	// CodeUnknownDevice: the event names a device outside the tenant's
	// trained inventory.
	CodeUnknownDevice Code = 3
	// CodeValueOutOfRange: the event value (NaN, ±Inf) is unclassifiable.
	CodeValueOutOfRange Code = 4
	// CodeUnknownTenant: the Hello (or event) addressed a tenant the
	// server does not host.
	CodeUnknownTenant Code = 5
	// CodeBadAuth: the Hello's token was rejected.
	CodeBadAuth Code = 6
	// CodeProtocol: malformed frame, oversized frame, or version mismatch.
	CodeProtocol Code = 7
	// CodeClosed: the serving host is shutting down.
	CodeClosed Code = 8
	// CodeInternal: any other serving-side failure.
	CodeInternal Code = 9
)

func (c Code) String() string {
	switch c {
	case CodeBackpressure:
		return "backpressure"
	case CodeQuarantined:
		return "quarantined"
	case CodeUnknownDevice:
		return "unknown-device"
	case CodeValueOutOfRange:
		return "value-out-of-range"
	case CodeUnknownTenant:
		return "unknown-tenant"
	case CodeBadAuth:
		return "bad-auth"
	case CodeProtocol:
		return "protocol"
	case CodeClosed:
		return "closed"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Event is one device state report on the wire. Seq is the
// producer-assigned sequence number echoed in Nack and alarm frames; the
// protocol does not interpret it beyond echoing.
type Event = event.Report

// Nack reports one refused Hello or event. Seq is zero for a Hello nack.
type Nack struct {
	Seq    uint64
	Code   Code
	Detail string
}

func (n Nack) Error() string {
	if n.Detail == "" {
		return fmt.Sprintf("wire: nack seq=%d code=%s", n.Seq, n.Code)
	}
	return fmt.Sprintf("wire: nack seq=%d code=%s: %s", n.Seq, n.Code, n.Detail)
}

// ContextEntry is one cause→state pair of an anomalous event's context.
type ContextEntry = event.ContextEntry

// AlarmEvent is one member of an alarm's anomaly chain; its Context is
// sorted by name, which is the order the frame encodes.
type AlarmEvent = event.AlarmEvent

// Alarm is one detection alarm pushed back to the producer. Seq is the
// sequence number of the event that completed (or abruptly terminated) the
// chain — zero when the alarm was raised by an operator flush rather than
// an event. It is the detector's own alarm type, encoded as it is.
type Alarm = event.Alarm

const (
	headerLen       = 4
	alarmFlagAbrupt = 1 << 0
)

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrBadFrame, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// frame finalizes an encoded frame: dst[at:] holds type byte + payload and
// the 4 length bytes reserved at dst[at-4:at] are patched in place.
func frame(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at-headerLen:at], uint32(len(dst)-at))
	return dst
}

// begin reserves the length header and writes the type byte, returning the
// offset the payload starts at (for frame).
func begin(dst []byte, t FrameType) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0)
	at := len(dst)
	return append(dst, byte(t)), at
}

// appendHello encodes a connection opener of type t (Hello, ShardHello):
// the protocol version, the auth token, and the peer's name.
func appendHello(dst []byte, t FrameType, token, name string) ([]byte, error) {
	dst, at := begin(dst, t)
	dst = append(dst, Version)
	var err error
	if dst, err = appendString(dst, token); err != nil {
		return nil, err
	}
	if dst, err = appendString(dst, name); err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// AppendHelloSession encodes the Hello every producer sends: the v1 payload
// plus a trailing session byte. The server refuses a Hello without it, and
// defers alarm routing until the Resume frame that must follow, closing the
// window where an alarm could bypass the session's replay ring.
func AppendHelloSession(dst []byte, token, tenant string) ([]byte, error) {
	out, err := appendHello(dst, FrameHello, token, tenant)
	if err != nil {
		return nil, err
	}
	out = append(out, 1)
	binary.BigEndian.PutUint32(out[len(dst):], uint32(len(out)-len(dst)-headerLen))
	return out, nil
}

// ParseHello decodes a Hello payload. session reports the trailing session
// byte; a plain v1 Hello, which the server refuses, leaves it false.
func ParseHello(p []byte) (version uint8, token, tenant string, session bool, err error) {
	d := decoder{p: p}
	version = d.u8()
	token = d.str()
	tenant = d.str()
	if d.fail {
		return 0, "", "", false, fmt.Errorf("%w: hello", ErrBadFrame)
	}
	session = len(d.p) > 0 && d.p[0] == 1
	return version, token, tenant, session, nil
}

// AppendWelcome encodes a Welcome frame onto dst: the v1 payload plus a
// trailing byte of capability bits (CapEventBatch).
func AppendWelcome(dst []byte, maxFrame uint32, caps uint8) []byte {
	dst, at := beginWelcome(dst, FrameWelcome, maxFrame)
	return frame(append(dst, caps), at)
}

// beginWelcome opens a handshake reply of type t (Welcome, ShardWelcome):
// the protocol version and the frame size limit.
func beginWelcome(dst []byte, t FrameType, maxFrame uint32) ([]byte, int) {
	dst, at := begin(dst, t)
	return binary.BigEndian.AppendUint32(append(dst, Version), maxFrame), at
}

// ParseWelcome decodes a Welcome payload. caps is zero for a server that
// sends no capability byte.
func ParseWelcome(p []byte) (version uint8, maxFrame uint32, caps uint8, err error) {
	d := decoder{p: p}
	version = d.u8()
	maxFrame = d.u32()
	if d.fail {
		return 0, 0, 0, fmt.Errorf("%w: welcome", ErrBadFrame)
	}
	if len(d.p) > 0 {
		caps = d.p[0]
	}
	return version, maxFrame, caps, nil
}

// AppendEvent encodes an Event frame onto dst.
func AppendEvent(dst []byte, ev Event) ([]byte, error) {
	dst, at := begin(dst, FrameEvent)
	dst, err := appendEventBody(dst, ev)
	if err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// eventBodyMin is the smallest encoded event: seq, time and value plus an
// empty device name's length prefix.
const eventBodyMin = 8 + 8 + 8 + 2

// fitEvent refuses an event that cannot travel alone in an EventBatch frame
// under maxFrame, the server's frame limit on the type byte and payload, or
// whose device name the codec cannot encode. A server cuts the connection
// that carries a frame over its limit, so such an event would be
// retransmitted into the same cut on every reconnect.
func fitEvent(ev Event, maxFrame int) error {
	if len(ev.Device) > math.MaxUint16 {
		return fmt.Errorf("%w: device name of %d bytes", ErrBadFrame, len(ev.Device))
	}
	if n := 1 + 2 + eventBodyMin + len(ev.Device); n > maxFrame {
		return fmt.Errorf("%w: event batch of %d bytes, server limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	return nil
}

// appendEventBody encodes one Event payload, the entry codec of both the
// Event and the EventBatch frame.
func appendEventBody(dst []byte, ev Event) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, ev.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.Time.UnixNano()))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Value))
	return appendString(dst, ev.Device)
}

// event decodes one Event payload into ev, in place: batch decoders fill
// the slice element they appended instead of copying a returned struct.
func (d *decoder) event(ev *Event) {
	ev.Seq = d.u64()
	ev.Time = time.Unix(0, int64(d.u64())).UTC()
	ev.Value = math.Float64frombits(d.u64())
	ev.Device = d.str()
}

// ParseEvent decodes an Event payload.
func ParseEvent(p []byte) (Event, error) { return (*Names)(nil).ParseEvent(p) }

// ParseEvent is the package-level ParseEvent with the device name taken
// from the table.
func (names *Names) ParseEvent(p []byte) (Event, error) {
	d := decoder{p: p, names: names}
	var ev Event
	d.event(&ev)
	if d.fail {
		return Event{}, fmt.Errorf("%w: event", ErrBadFrame)
	}
	return ev, nil
}

// ParseEventBatch decodes an EventBatch payload, appending the events to
// evs (reuse a scratch slice to keep the decode allocation-free), with the
// device names taken from the table. Client.Send encodes the frame.
func (names *Names) ParseEventBatch(p []byte, evs []Event) ([]Event, error) {
	d := decoder{p: p, names: names}
	n := int(d.u16())
	// A count the remaining payload cannot hold is malformed; refuse it
	// before appending anything.
	if d.fail || n > len(d.p)/eventBodyMin {
		return evs, fmt.Errorf("%w: event-batch", ErrBadFrame)
	}
	start := len(evs)
	for i := 0; i < n && !d.fail; i++ {
		evs = append(evs, Event{})
		d.event(&evs[len(evs)-1])
	}
	if d.fail {
		return evs[:start], fmt.Errorf("%w: event-batch", ErrBadFrame)
	}
	return evs, nil
}

// AppendNack encodes a Nack frame onto dst.
func AppendNack(dst []byte, n Nack) ([]byte, error) {
	dst, at := begin(dst, FrameNack)
	dst = binary.BigEndian.AppendUint64(dst, n.Seq)
	dst = append(dst, byte(n.Code))
	var err error
	if dst, err = appendString(dst, n.Detail); err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// ParseNack decodes a Nack payload.
func ParseNack(p []byte) (Nack, error) {
	d := decoder{p: p}
	n := Nack{Seq: d.u64(), Code: Code(d.u8())}
	n.Detail = d.str()
	if d.fail {
		return Nack{}, fmt.Errorf("%w: nack", ErrBadFrame)
	}
	return n, nil
}

// The alarm encoders size the frame first and grow dst once to hold it, so
// encoding onto nil (an alarm bank's entry) costs exactly one allocation.

// AppendSessionAlarm encodes a SessionAlarm frame: the session's alarm
// index, then the alarm payload.
func AppendSessionAlarm(dst []byte, idx uint64, a Alarm) ([]byte, error) {
	dst, at := begin(grow(dst, headerLen+1+8+alarmBodyLen(a)), FrameSessionAlarm)
	dst = binary.BigEndian.AppendUint64(dst, idx)
	return appendAlarmBody(dst, at, a)
}

// grow returns dst with room for n more bytes, allocating (exactly that
// room) at most once.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// alarmBodyLen is the encoded size of a's alarm payload: appendAlarmBody's
// output without the frame header or a frame's prefix.
func alarmBodyLen(a Alarm) int {
	n := 8 + 8 + 1 + 2
	for _, ev := range a.Events {
		n += 2 + len(ev.Device) + 4 + 8 + 2
		for _, c := range ev.Context {
			n += 2 + len(c.Name) + 4
		}
	}
	return n
}

func appendAlarmBody(dst []byte, at int, a Alarm) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, a.Seq)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Score))
	var flags byte
	if a.Abrupt {
		flags |= alarmFlagAbrupt
	}
	dst = append(dst, flags)
	if len(a.Events) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: alarm with %d events", ErrBadFrame, len(a.Events))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Events)))
	var err error
	for _, ev := range a.Events {
		if dst, err = appendString(dst, ev.Device); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(ev.State))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Score))
		if len(ev.Context) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: alarm context with %d entries", ErrBadFrame, len(ev.Context))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(ev.Context)))
		for _, c := range ev.Context {
			if dst, err = appendString(dst, c.Name); err != nil {
				return nil, err
			}
			dst = binary.BigEndian.AppendUint32(dst, uint32(c.State))
		}
	}
	return frame(dst, at), nil
}

// ParseSessionAlarm decodes a SessionAlarm payload.
func ParseSessionAlarm(p []byte) (uint64, Alarm, error) {
	return (*Names)(nil).ParseSessionAlarm(p)
}

// ParseSessionAlarm is the package-level ParseSessionAlarm with the device
// and context names taken from the table: on a warm table the decode
// allocates only the returned alarm's event and context slices.
func (names *Names) ParseSessionAlarm(p []byte) (uint64, Alarm, error) {
	d := decoder{p: p, names: names}
	idx := d.u64()
	a, err := parseAlarmBody(&d)
	if err != nil {
		return 0, Alarm{}, err
	}
	return idx, a, nil
}

// parseAlarmBody decodes an alarm and refuses values the detector never
// produces: a score (the alarm's or an event's) outside [0, 1], NaN
// included, and a device state other than 0 or 1. The chain's layout is
// checked before anything is allocated; then the events take one slice and
// all their contexts share one backing array, each event's Context a
// capacity-capped window of it (nil without causes, as the detector's
// conversion leaves it).
func parseAlarmBody(d *decoder) (Alarm, error) {
	a := Alarm{Seq: d.u64(), Score: math.Float64frombits(d.u64())}
	if !validScore(a.Score) {
		return Alarm{}, fmt.Errorf("%w: alarm score %v", ErrBadFrame, a.Score)
	}
	a.Abrupt = d.u8()&alarmFlagAbrupt != 0
	n := int(d.u16())
	nctx, ok := alarmChainShape(d.p, n)
	if d.fail || !ok {
		return Alarm{}, fmt.Errorf("%w: alarm", ErrBadFrame)
	}
	if n > 0 {
		a.Events = make([]AlarmEvent, n)
	}
	var ctx []ContextEntry
	if nctx > 0 {
		ctx = make([]ContextEntry, nctx)
	}
	for i := range a.Events {
		ev := &a.Events[i]
		ev.Device = d.str()
		st := d.u32()
		ev.Score = math.Float64frombits(d.u64())
		if st > 1 || !validScore(ev.Score) {
			return Alarm{}, fmt.Errorf("%w: alarm event state %d score %v", ErrBadFrame, int32(st), ev.Score)
		}
		ev.State = int(st)
		if k := int(d.u16()); k > 0 {
			ev.Context, ctx = ctx[:k:k], ctx[k:]
		}
		for j := range ev.Context {
			c := &ev.Context[j]
			c.Name = d.str()
			st := d.u32()
			if st > 1 {
				return Alarm{}, fmt.Errorf("%w: alarm context state %d", ErrBadFrame, int32(st))
			}
			c.State = int(st)
		}
	}
	if d.fail {
		return Alarm{}, fmt.Errorf("%w: alarm", ErrBadFrame)
	}
	return a, nil
}

// alarmChainShape walks the n encoded chain events at the front of p and
// reports their total context entries, or false when they do not fit in p.
// Each event costs at least 16 bytes and each context entry 6, so the walk
// is bounded by the payload, never by the counts it reads.
func alarmChainShape(p []byte, n int) (nctx int, ok bool) {
	for range n {
		// Device name, state, score, then the context count.
		if len(p) < 2 {
			return 0, false
		}
		l := 2 + int(binary.BigEndian.Uint16(p)) + 4 + 8
		if len(p) < l+2 {
			return 0, false
		}
		k := int(binary.BigEndian.Uint16(p[l:]))
		p = p[l+2:]
		nctx += k
		for range k {
			if len(p) < 2 {
				return 0, false
			}
			l := 2 + int(binary.BigEndian.Uint16(p)) + 4
			if len(p) < l {
				return 0, false
			}
			p = p[l:]
		}
	}
	return nctx, true
}

// validScore reports whether s is an anomaly score: a probability in
// [0, 1]. NaN fails both comparisons.
func validScore(s float64) bool { return s >= 0 && s <= 1 }

// AppendBye encodes a Bye frame onto dst.
func AppendBye(dst []byte) []byte {
	dst, at := begin(dst, FrameBye)
	return frame(dst, at)
}

// AppendEventRetx encodes a retransmitted event: the Event payload under
// the EventRetx frame type.
func AppendEventRetx(dst []byte, ev Event) ([]byte, error) {
	out, err := AppendEvent(dst, ev)
	if err != nil {
		return nil, err
	}
	out[len(dst)+headerLen] = byte(FrameEventRetx)
	return out, nil
}

// AppendResume encodes a Resume frame: the session name and the highest
// session-alarm index the client has already received.
func AppendResume(dst []byte, session string, alarmIdx uint64) ([]byte, error) {
	return appendTenantCursor(dst, FrameResume, session, alarmIdx)
}

// ParseResume decodes a Resume payload.
func ParseResume(p []byte) (session string, alarmIdx uint64, err error) {
	return parseTenantCursor(p, FrameResume)
}

// AppendResumeOK encodes a ResumeOK frame: the session's decided-event
// watermark and its current alarm index.
func AppendResumeOK(dst []byte, watermark, alarmIdx uint64) []byte {
	dst, at := begin(dst, FrameResumeOK)
	dst = binary.BigEndian.AppendUint64(dst, watermark)
	dst = binary.BigEndian.AppendUint64(dst, alarmIdx)
	return frame(dst, at)
}

// ParseResumeOK decodes a ResumeOK payload.
func ParseResumeOK(p []byte) (watermark, alarmIdx uint64, err error) {
	d := decoder{p: p}
	watermark = d.u64()
	alarmIdx = d.u64()
	if d.fail {
		return 0, 0, fmt.Errorf("%w: resume-ok", ErrBadFrame)
	}
	return watermark, alarmIdx, nil
}

// appendU64 encodes a frame of type t carrying one uint64.
func appendU64(dst []byte, t FrameType, v uint64) []byte {
	dst, at := begin(dst, t)
	dst = binary.BigEndian.AppendUint64(dst, v)
	return frame(dst, at)
}

// parseU64 decodes a payload written by appendU64.
func parseU64(p []byte, t FrameType) (uint64, error) {
	d := decoder{p: p}
	v := d.u64()
	if d.fail {
		return 0, fmt.Errorf("%w: %s", ErrBadFrame, t)
	}
	return v, nil
}

// AppendAck encodes a cumulative event acknowledgement.
func AppendAck(dst []byte, seq uint64) []byte { return appendU64(dst, FrameAck, seq) }

// ParseAck decodes an Ack payload.
func ParseAck(p []byte) (uint64, error) { return parseU64(p, FrameAck) }

// AppendAlarmAck encodes a cumulative session-alarm receipt.
func AppendAlarmAck(dst []byte, idx uint64) []byte { return appendU64(dst, FrameAlarmAck, idx) }

// ParseAlarmAck decodes an AlarmAck payload.
func ParseAlarmAck(p []byte) (uint64, error) { return parseU64(p, FrameAlarmAck) }

// pingFrame is an encoded Ping, shared read-only by every sender: the
// writers copy what they are given.
var pingFrame = AppendPing(nil)

// AppendPing encodes a Ping frame onto dst.
func AppendPing(dst []byte) []byte {
	dst, at := begin(dst, FramePing)
	return frame(dst, at)
}

// AppendPong encodes a Pong frame onto dst.
func AppendPong(dst []byte) []byte {
	dst, at := begin(dst, FramePong)
	return frame(dst, at)
}

// A Names table holds at most maxNames names of at most maxNameLen bytes.
// Any other name decodes into a fresh string as if there were no table, so
// a producer cycling through endless distinct names cannot grow a
// connection's memory.
const (
	maxNames   = 4096
	maxNameLen = 64
)

// Names is a per-connection intern table for decoded names (devices,
// tenants): a name already in the table decodes without an allocation,
// because a map lookup keyed by string(b) does not copy b. A nil *Names
// interns nothing. Not safe for concurrent use; give each reader its own.
type Names struct {
	m map[string]string
}

func (n *Names) str(b []byte) string {
	if n == nil {
		return string(b)
	}
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(n.m) < maxNames && len(s) <= maxNameLen {
		if n.m == nil {
			n.m = make(map[string]string)
		}
		n.m[s] = s
	}
	return s
}

// decoder is a cursor over one frame payload; any out-of-bounds read flips
// fail and every later read returns zero values, so parsers check one flag.
type decoder struct {
	p     []byte
	fail  bool
	names *Names // interns decoded strings when non-nil
}

func (d *decoder) take(n int) []byte {
	if d.fail || len(d.p) < n {
		d.fail = true
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return d.names.str(b)
}

// Reader reads frames off a byte stream, enforcing the frame size limit
// before any payload is buffered.
type Reader struct {
	r   *bufio.Reader
	max int
	buf []byte
	hdr [headerLen]byte // a field, not a local: io.ReadFull would move it to the heap
}

// NewReader wraps r; maxFrame <= 0 selects DefaultMaxFrame.
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: bufio.NewReaderSize(r, 32<<10), max: maxFrame}
}

// Next reads one frame, returning its type and payload. The payload slice
// is only valid until the next call. io.EOF is returned unwrapped on a
// clean end-of-stream between frames; a stream cut mid-frame returns
// io.ErrUnexpectedEOF wrapped in ErrBadFrame.
func (r *Reader) Next() (FrameType, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %w", ErrBadFrame, err)
	}
	n := int(binary.BigEndian.Uint32(r.hdr[:]))
	if n > r.max {
		return 0, nil, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, r.max)
	}
	if n < 1 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrBadFrame)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: body: %w", ErrBadFrame, err)
	}
	return FrameType(buf[0]), buf[1:], nil
}
