// Cluster frame range (32+): the shard control plane a front-end router
// speaks to a remote shard worker. It rides the same length-prefixed codec
// as the producer protocol (one type byte + payload, big-endian integers,
// uint16-length-prefixed strings) but is a peer-to-peer link between
// processes we control at both ends, so it multiplexes many tenants over
// one connection and carries whole checkpoint envelopes in chunks.
//
// Reliability mirrors the producer session machinery: the router assigns
// each submitted event a strictly increasing per-tenant link sequence
// number; the worker keeps a per-tenant decided watermark (every link
// sequence at or below it has been admitted or nacked) and acknowledges
// cumulatively with ShardAck. Alarms flow back under a per-tenant
// monotonically increasing alarm index with a bounded replay ring, so a
// link kill mid-stream loses nothing: ResumeTenant after a reconnect
// returns the watermark (the router retransmits only the tail) and replays
// unconfirmed alarms. See DESIGN.md §11 for the full layouts and the
// handoff state machine.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	// FrameShardHello opens a cluster link: protocol version, auth token,
	// and the router's self-chosen name (for worker-side logging).
	FrameShardHello FrameType = 32
	// FrameShardWelcome accepts a ShardHello: protocol version and the
	// worker's frame size limit.
	FrameShardWelcome FrameType = 33
	// FrameRegisterTenant announces a tenant registration (or model swap)
	// on the worker. The checkpoint envelope follows as EnvelopeChunk
	// frames and an EnvelopeDone commit; the worker answers TenantOK or
	// ShardErr after the commit.
	FrameRegisterTenant FrameType = 34
	// FrameEnvelopeChunk carries one slice of a checkpoint envelope
	// (model or state section) in either direction.
	FrameEnvelopeChunk FrameType = 35
	// FrameEnvelopeDone commits the envelope chunks accumulated for a
	// tenant: register/swap on the worker, export completion on the router.
	FrameEnvelopeDone FrameType = 36
	// FrameTenantOK is the worker's success reply to a tenant-scoped
	// control op, carrying the tenant's decided-event watermark and alarm
	// index (zero where not meaningful).
	FrameTenantOK FrameType = 37
	// FrameShardErr is the worker's failure reply to a control op.
	FrameShardErr FrameType = 38
	// FrameSubmitBatch carries one or more events for a tenant, each
	// tagged with the router-assigned link sequence number.
	FrameSubmitBatch FrameType = 39
	// FrameShardAck is the worker's cumulative per-tenant admission
	// acknowledgement: every link sequence at or below the carried
	// watermark has been decided (admitted or nacked).
	FrameShardAck FrameType = 40
	// FrameShardNack reports one refused event back to the router with
	// its link sequence number and a reason code. A nacked event is
	// decided: it advances the watermark like an admitted one.
	FrameShardNack FrameType = 41
	// FrameAlarmStream pushes one tenant alarm to the router, prefixed
	// with the worker's per-tenant alarm index.
	FrameAlarmStream FrameType = 42
	// FrameAlarmStreamAck is the router's cumulative alarm receipt; the
	// worker prunes its replay ring up to the carried index. The router
	// appends one per tenant whose receipt advanced to the link's next
	// write, whatever that write carries; a quiet link gets them after
	// ReceiptDelay (at once ReceiptLag alarms ahead).
	FrameAlarmStreamAck FrameType = 43
	// FrameResumeTenant re-adopts a tenant after a reconnect: the payload
	// carries the highest alarm index the router has dispatched, the
	// reply (TenantOK) carries the worker's watermark so the router can
	// prune its retransmit window and resend only the tail.
	FrameResumeTenant FrameType = 44
	// FrameQuiesce asks the worker to drain the tenant's ingestion queue
	// to an event boundary; because the link is ordered, every event
	// written before the Quiesce frame is enqueued before the drain
	// begins. The TenantOK reply doubles as a final cumulative ack.
	FrameQuiesce FrameType = 45
	// FrameExportEnvelope asks the worker to export the tenant's
	// checkpoint envelope; the reply is a chunk stream ending in
	// EnvelopeDone (or a ShardErr).
	FrameExportEnvelope FrameType = 46
	// FrameDeregisterTenant removes the tenant from the worker.
	FrameDeregisterTenant FrameType = 47
	// FrameShardStatsReq asks the worker for its serving stats; answered
	// with ShardStats.
	FrameShardStatsReq FrameType = 48
	// FrameShardStats carries the worker's stats as a JSON document —
	// operational telemetry, deliberately schema-loose on the wire.
	FrameShardStats FrameType = 49
	// FrameDrain asks the worker to quiesce every tenant it hosts (the
	// prelude to a router-side final checkpoint sweep).
	FrameDrain FrameType = 50
	// FrameFlushTenant force-closes the tenant's open anomaly chains,
	// emitting any abrupt alarms before the reply.
	FrameFlushTenant FrameType = 51
)

// ShardOp identifies which control operation a TenantOK or ShardErr
// answers; the router correlates replies by op (one control op is in
// flight per link at a time).
type ShardOp uint8

const (
	OpRegister   ShardOp = 1
	OpResume     ShardOp = 2
	OpQuiesce    ShardOp = 3
	OpExport     ShardOp = 4
	OpDeregister ShardOp = 5
	OpDrain      ShardOp = 6
	OpFlush      ShardOp = 7
	OpSwap       ShardOp = 8
	OpStats      ShardOp = 9
)

func (o ShardOp) String() string {
	switch o {
	case OpRegister:
		return "register"
	case OpResume:
		return "resume"
	case OpQuiesce:
		return "quiesce"
	case OpExport:
		return "export"
	case OpDeregister:
		return "deregister"
	case OpDrain:
		return "drain"
	case OpFlush:
		return "flush"
	case OpSwap:
		return "swap"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// RegisterTenant flags.
const (
	// RegFlagHasState: the envelope carries a state section too (restore
	// mid-stream detector state, not just the model).
	RegFlagHasState = 1 << 0
	// RegFlagSwap: hot-swap the model under an already-registered tenant
	// instead of registering a new one.
	RegFlagSwap = 1 << 1
)

// Envelope section kinds for EnvelopeChunk.
const (
	EnvModel uint8 = 0
	EnvState uint8 = 1
)

// RegisterTenant announces a registration, restore, or model swap.
type RegisterTenant struct {
	Tenant string
	Flags  uint8
	Queue  uint32 // per-tenant ingestion queue capacity (0 = worker default)
	Policy uint8  // backpressure policy ordinal (worker-side interpretation)
}

// EnvelopeChunk is one slice of a checkpoint envelope in transit.
type EnvelopeChunk struct {
	Tenant string
	Kind   uint8 // EnvModel or EnvState
	Data   []byte
}

// TenantOK is the worker's success reply to a control op.
type TenantOK struct {
	Op        ShardOp
	Tenant    string
	Watermark uint64 // decided-event watermark (link sequence)
	AlarmIdx  uint64 // current alarm index
}

// ShardErr is the worker's failure reply to a control op.
type ShardErr struct {
	Op     ShardOp
	Tenant string
	Code   Code
	Detail string
}

func (e ShardErr) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("wire: shard %s %q: %s", e.Op, e.Tenant, e.Code)
	}
	return fmt.Sprintf("wire: shard %s %q: %s: %s", e.Op, e.Tenant, e.Code, e.Detail)
}

// BatchEvent is one event in a SubmitBatch: the router-assigned link
// sequence number plus the producer-visible event (whose own Seq survives
// for alarm attribution).
type BatchEvent struct {
	Link uint64
	Ev   Event
}

// ShardNack reports one refused event on the cluster link.
type ShardNack struct {
	Tenant string
	Link   uint64
	Code   Code
	Detail string
}

func (n ShardNack) Error() string {
	if n.Detail == "" {
		return fmt.Sprintf("wire: shard nack %q link %d: %s", n.Tenant, n.Link, n.Code)
	}
	return fmt.Sprintf("wire: shard nack %q link %d: %s: %s", n.Tenant, n.Link, n.Code, n.Detail)
}

// AppendShardHello encodes a ShardHello frame onto dst.
func AppendShardHello(dst []byte, token, router string) ([]byte, error) {
	return appendHello(dst, FrameShardHello, token, router)
}

// ParseShardHello decodes a ShardHello payload.
func ParseShardHello(p []byte) (version uint8, token, router string, err error) {
	if version, token, router, _, err = ParseHello(p); err != nil {
		return 0, "", "", fmt.Errorf("%w: shard-hello", ErrBadFrame)
	}
	return version, token, router, nil
}

// AppendShardWelcome encodes a ShardWelcome frame onto dst.
func AppendShardWelcome(dst []byte, maxFrame uint32) []byte {
	return frame(beginWelcome(dst, FrameShardWelcome, maxFrame))
}

// ParseShardWelcome decodes a ShardWelcome payload.
func ParseShardWelcome(p []byte) (version uint8, maxFrame uint32, err error) {
	if version, maxFrame, _, err = ParseWelcome(p); err != nil {
		return 0, 0, fmt.Errorf("%w: shard-welcome", ErrBadFrame)
	}
	return version, maxFrame, nil
}

// AppendRegisterTenant encodes a RegisterTenant frame onto dst.
func AppendRegisterTenant(dst []byte, r RegisterTenant) ([]byte, error) {
	dst, at := begin(dst, FrameRegisterTenant)
	var err error
	if dst, err = appendString(dst, r.Tenant); err != nil {
		return nil, err
	}
	dst = append(dst, r.Flags)
	dst = binary.BigEndian.AppendUint32(dst, r.Queue)
	dst = append(dst, r.Policy)
	return frame(dst, at), nil
}

// ParseRegisterTenant decodes a RegisterTenant payload.
func ParseRegisterTenant(p []byte) (RegisterTenant, error) {
	d := decoder{p: p}
	r := RegisterTenant{Tenant: d.str(), Flags: d.u8()}
	r.Queue = d.u32()
	r.Policy = d.u8()
	if d.fail || r.Tenant == "" {
		return RegisterTenant{}, fmt.Errorf("%w: register-tenant", ErrBadFrame)
	}
	return r, nil
}

// AppendEnvelopeChunk encodes an EnvelopeChunk frame onto dst.
func AppendEnvelopeChunk(dst []byte, c EnvelopeChunk) ([]byte, error) {
	dst, at := begin(dst, FrameEnvelopeChunk)
	var err error
	if dst, err = appendString(dst, c.Tenant); err != nil {
		return nil, err
	}
	dst = append(dst, c.Kind)
	dst = append(dst, c.Data...)
	return frame(dst, at), nil
}

// ParseEnvelopeChunk decodes an EnvelopeChunk payload. The Data slice
// aliases p and is only valid until the reader's next frame.
func ParseEnvelopeChunk(p []byte) (EnvelopeChunk, error) {
	d := decoder{p: p}
	c := EnvelopeChunk{Tenant: d.str(), Kind: d.u8()}
	if d.fail || c.Tenant == "" || c.Kind > EnvState {
		return EnvelopeChunk{}, fmt.Errorf("%w: envelope-chunk", ErrBadFrame)
	}
	c.Data = d.p
	return c, nil
}

// AppendTenantOK encodes a TenantOK frame onto dst.
func AppendTenantOK(dst []byte, ok TenantOK) ([]byte, error) {
	dst, at := begin(dst, FrameTenantOK)
	dst = append(dst, byte(ok.Op))
	var err error
	if dst, err = appendString(dst, ok.Tenant); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, ok.Watermark)
	dst = binary.BigEndian.AppendUint64(dst, ok.AlarmIdx)
	return frame(dst, at), nil
}

// ParseTenantOK decodes a TenantOK payload.
func ParseTenantOK(p []byte) (TenantOK, error) {
	d := decoder{p: p}
	ok := TenantOK{Op: ShardOp(d.u8()), Tenant: d.str()}
	ok.Watermark = d.u64()
	ok.AlarmIdx = d.u64()
	if d.fail {
		return TenantOK{}, fmt.Errorf("%w: tenant-ok", ErrBadFrame)
	}
	return ok, nil
}

// AppendShardErr encodes a ShardErr frame onto dst.
func AppendShardErr(dst []byte, e ShardErr) ([]byte, error) {
	dst, at := begin(dst, FrameShardErr)
	dst = append(dst, byte(e.Op))
	var err error
	if dst, err = appendString(dst, e.Tenant); err != nil {
		return nil, err
	}
	dst = append(dst, byte(e.Code))
	if dst, err = appendString(dst, e.Detail); err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// ParseShardErr decodes a ShardErr payload.
func ParseShardErr(p []byte) (ShardErr, error) {
	d := decoder{p: p}
	e := ShardErr{Op: ShardOp(d.u8()), Tenant: d.str()}
	e.Code = Code(d.u8())
	e.Detail = d.str()
	if d.fail {
		return ShardErr{}, fmt.Errorf("%w: shard-err", ErrBadFrame)
	}
	return e, nil
}

// AppendSubmitBatch encodes a SubmitBatch frame onto dst.
func AppendSubmitBatch(dst []byte, tenant string, evs []BatchEvent) ([]byte, error) {
	if len(evs) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: batch of %d events", ErrBadFrame, len(evs))
	}
	dst, at := begin(dst, FrameSubmitBatch)
	var err error
	if dst, err = appendString(dst, tenant); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(evs)))
	for _, be := range evs {
		if dst, err = appendBatchEvent(dst, be); err != nil {
			return nil, err
		}
	}
	return frame(dst, at), nil
}

// appendBatchEvent encodes one SubmitBatch entry onto dst.
func appendBatchEvent(dst []byte, be BatchEvent) ([]byte, error) {
	return appendEventBody(binary.BigEndian.AppendUint64(dst, be.Link), be.Ev)
}

// ParseSubmitBatch decodes a SubmitBatch payload, appending the events to
// evs (reuse a scratch slice to keep the hot path allocation-light), with
// the tenant and device names taken from the table.
func (names *Names) ParseSubmitBatch(p []byte, evs []BatchEvent) (string, []BatchEvent, error) {
	d := decoder{p: p, names: names}
	tenant := d.str()
	n := int(d.u16())
	// Each entry costs at least 34 payload bytes; refuse counts that
	// cannot fit the remaining payload before allocating.
	if d.fail || n > len(d.p)/(8+eventBodyMin) {
		return "", evs, fmt.Errorf("%w: submit-batch", ErrBadFrame)
	}
	start := len(evs)
	for i := 0; i < n && !d.fail; i++ {
		evs = append(evs, BatchEvent{Link: d.u64()})
		d.event(&evs[len(evs)-1].Ev)
	}
	if d.fail || tenant == "" {
		return "", evs[:start], fmt.Errorf("%w: submit-batch", ErrBadFrame)
	}
	return tenant, evs, nil
}

// appendTenantCursor encodes a frame of type t carrying a tenant or session
// name and one stream cursor (a watermark or an alarm index).
func appendTenantCursor(dst []byte, t FrameType, tenant string, cursor uint64) ([]byte, error) {
	dst, at := begin(dst, t)
	var err error
	if dst, err = appendString(dst, tenant); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, cursor)
	return frame(dst, at), nil
}

// parseTenantCursor decodes a payload written by appendTenantCursor.
func parseTenantCursor(p []byte, t FrameType) (string, uint64, error) {
	d := decoder{p: p}
	tenant := d.str()
	cursor := d.u64()
	if d.fail || tenant == "" {
		return "", 0, fmt.Errorf("%w: %s", ErrBadFrame, t)
	}
	return tenant, cursor, nil
}

// AppendShardAck encodes a ShardAck frame onto dst.
func AppendShardAck(dst []byte, tenant string, watermark uint64) ([]byte, error) {
	return appendTenantCursor(dst, FrameShardAck, tenant, watermark)
}

// ParseShardAck decodes a ShardAck payload.
func ParseShardAck(p []byte) (string, uint64, error) { return parseTenantCursor(p, FrameShardAck) }

// AppendShardNack encodes a ShardNack frame onto dst.
func AppendShardNack(dst []byte, n ShardNack) ([]byte, error) {
	dst, at := begin(dst, FrameShardNack)
	var err error
	if dst, err = appendString(dst, n.Tenant); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, n.Link)
	dst = append(dst, byte(n.Code))
	if dst, err = appendString(dst, n.Detail); err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// ParseShardNack decodes a ShardNack payload.
func ParseShardNack(p []byte) (ShardNack, error) {
	d := decoder{p: p}
	n := ShardNack{Tenant: d.str(), Link: d.u64()}
	n.Code = Code(d.u8())
	n.Detail = d.str()
	if d.fail || n.Tenant == "" {
		return ShardNack{}, fmt.Errorf("%w: shard-nack", ErrBadFrame)
	}
	return n, nil
}

// AppendAlarmStream encodes an AlarmStream frame onto dst, sized first
// like the other alarm frames: onto nil it costs one allocation.
func AppendAlarmStream(dst []byte, tenant string, idx uint64, a Alarm) ([]byte, error) {
	dst, at := begin(grow(dst, headerLen+1+2+len(tenant)+8+alarmBodyLen(a)), FrameAlarmStream)
	var err error
	if dst, err = appendString(dst, tenant); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, idx)
	return appendAlarmBody(dst, at, a)
}

// ParseAlarmStream decodes an AlarmStream payload. A frame whose tenant
// and index parse but whose alarm body does not returns them with the
// error, so the receiver can still move its receipt past the alarm.
func ParseAlarmStream(p []byte) (tenant string, idx uint64, a Alarm, err error) {
	return (*Names)(nil).ParseAlarmStream(p)
}

// ParseAlarmStream is the package-level ParseAlarmStream with the tenant,
// device and context names taken from the table.
func (names *Names) ParseAlarmStream(p []byte) (tenant string, idx uint64, a Alarm, err error) {
	d := decoder{p: p, names: names}
	tenant = d.str()
	idx = d.u64()
	if d.fail || tenant == "" {
		return "", 0, Alarm{}, fmt.Errorf("%w: alarm-stream", ErrBadFrame)
	}
	a, err = parseAlarmBody(&d)
	if err != nil {
		return tenant, idx, Alarm{}, err
	}
	return tenant, idx, a, nil
}

// AppendAlarmStreamAck encodes an AlarmStreamAck frame onto dst.
func AppendAlarmStreamAck(dst []byte, tenant string, idx uint64) ([]byte, error) {
	return appendTenantCursor(dst, FrameAlarmStreamAck, tenant, idx)
}

// ParseAlarmStreamAck decodes an AlarmStreamAck payload.
func ParseAlarmStreamAck(p []byte) (string, uint64, error) {
	return parseTenantCursor(p, FrameAlarmStreamAck)
}

// AppendResumeTenant encodes a ResumeTenant frame onto dst.
func AppendResumeTenant(dst []byte, tenant string, alarmIdx uint64) ([]byte, error) {
	return appendTenantCursor(dst, FrameResumeTenant, tenant, alarmIdx)
}

// ParseResumeTenant decodes a ResumeTenant payload.
func ParseResumeTenant(p []byte) (string, uint64, error) {
	return parseTenantCursor(p, FrameResumeTenant)
}

// AppendTenantFrame encodes one of the tenant-name-only control frames
// (EnvelopeDone, Quiesce, ExportEnvelope, DeregisterTenant, FlushTenant).
func AppendTenantFrame(dst []byte, t FrameType, tenant string) ([]byte, error) {
	dst, at := begin(dst, t)
	var err error
	if dst, err = appendString(dst, tenant); err != nil {
		return nil, err
	}
	return frame(dst, at), nil
}

// ParseTenantFrame decodes a tenant-name-only control payload.
func ParseTenantFrame(p []byte) (string, error) {
	d := decoder{p: p}
	tenant := d.str()
	if d.fail || tenant == "" {
		return "", fmt.Errorf("%w: tenant frame", ErrBadFrame)
	}
	return tenant, nil
}

// AppendShardStatsReq encodes a ShardStatsReq frame onto dst.
func AppendShardStatsReq(dst []byte) []byte {
	dst, at := begin(dst, FrameShardStatsReq)
	return frame(dst, at)
}

// AppendShardStats encodes a ShardStats frame: an opaque JSON document.
func AppendShardStats(dst []byte, doc []byte) []byte {
	dst, at := begin(dst, FrameShardStats)
	dst = append(dst, doc...)
	return frame(dst, at)
}

// AppendDrain encodes a Drain frame onto dst. millis bounds the worker's
// per-tenant quiesce wait; zero means wait indefinitely.
func AppendDrain(dst []byte, millis uint64) []byte { return appendU64(dst, FrameDrain, millis) }

// ParseDrain decodes a Drain payload.
func ParseDrain(p []byte) (uint64, error) { return parseU64(p, FrameDrain) }
