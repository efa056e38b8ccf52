// Package cluster implements the multi-process shard tier: a Worker serves
// one process's hub over the wire codec's cluster frame range, and a Proxy
// is the router-side remote shard that speaks to it — registration and
// model swap by chunked checkpoint envelope, per-tenant exactly-once event
// admission under a link-sequence watermark, alarm streaming with a bounded
// replay ring, quiesce/export/deregister control ops for cross-process live
// migration, and reconnect-with-resume when the link dies. See DESIGN.md
// §11 for the protocol and the handoff state machine.
package cluster

import (
	"errors"

	"github.com/causaliot/causaliot/internal/wire"
)

// Cluster link errors.
var (
	// ErrLinkDown reports a control operation attempted while the shard
	// link is degraded (reconnect in progress). Transient: retry after the
	// link resumes.
	ErrLinkDown = errors.New("cluster: shard link down")
	// ErrLinkGaveUp reports a proxy that exhausted its reconnect attempts;
	// terminal for this proxy.
	ErrLinkGaveUp = errors.New("cluster: shard link gave up reconnecting")
	// ErrProxyClosed reports an operation on a closed proxy.
	ErrProxyClosed = errors.New("cluster: proxy closed")
	// ErrUnknownTenant reports a tenant the proxy has not registered.
	ErrUnknownTenant = errors.New("cluster: tenant not registered on this shard")
	// ErrControlTimeout reports a control op whose reply did not arrive in
	// time; the link is cut because its state is indeterminate.
	ErrControlTimeout = errors.New("cluster: control op timed out")
)

// chunked splits b into ChunkSize slices (the last may be shorter); a nil
// or empty b yields no chunks.
func chunked(b []byte, size int) [][]byte {
	var out [][]byte
	for len(b) > size {
		out = append(out, b[:size])
		b = b[size:]
	}
	if len(b) > 0 {
		out = append(out, b)
	}
	return out
}

// envelopeFrames appends to frames one checkpoint envelope as EnvelopeChunk
// frames of at most size bytes, model before state, then the EnvelopeDone
// commit.
func envelopeFrames(frames [][]byte, tenant string, model, state []byte, size int) ([][]byte, error) {
	for _, part := range []struct {
		kind uint8
		data []byte
	}{{wire.EnvModel, model}, {wire.EnvState, state}} {
		for _, piece := range chunked(part.data, size) {
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
