// Package cluster implements the multi-process shard tier: a Worker serves
// one process's hub over the wire codec's cluster frame range, and a Proxy
// is the router-side remote shard that speaks to it — registration and
// model swap by chunked checkpoint envelope, per-tenant exactly-once event
// admission under a link-sequence watermark, alarm streaming with a bounded
// replay ring, quiesce/export/deregister control ops for cross-process live
// migration, and reconnect-with-resume when the link dies. See DESIGN.md
// §11 for the protocol and the handoff state machine.
package cluster

import "errors"

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
