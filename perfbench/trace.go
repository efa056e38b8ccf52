package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot"
)

// epoch anchors every stamp the benchmark takes; nanos reads the monotonic
// clock relative to it.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// stampRing keeps the latest stamp per sequence number in a power-of-two
// ring, tagged with the sequence it belongs to, so a reader on another
// goroutine gets the stamp of exactly that event or nothing. Writers are
// serialized per ring (one producer, or one home's stream thread); the
// zeroed tag during a write is a seqlock.
type stampRing struct {
	mask uint64
	tag  []atomic.Uint64
	at   []atomic.Int64
}

func newStampRing(size int) *stampRing {
	return &stampRing{mask: uint64(size - 1), tag: make([]atomic.Uint64, size), at: make([]atomic.Int64, size)}
}

func (r *stampRing) put(seq uint64, t int64) {
	i := seq & r.mask
	r.tag[i].Store(0)
	r.at[i].Store(t)
	r.tag[i].Store(seq)
}

func (r *stampRing) get(seq uint64) (int64, bool) {
	i := seq & r.mask
	if r.tag[i].Load() != seq {
		return 0, false
	}
	t := r.at[i].Load()
	if r.tag[i].Load() != seq {
		return 0, false
	}
	return t, true
}

// span is one timed interval at a layer boundary. Spans of one request
// share Home and Seq; Parent names the enclosing span of that request.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Home   string `json:"home"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 1 << 17

// spanSample keeps a span for one event in this many (every alarm's spans
// are kept regardless), which bounds trace memory on multi-million-event
// runs.
const spanSample = 256

// recorder collects the traced run's samples and spans. It is shared by
// the host decorator and the producers, which check on before recording,
// so untraced rounds of a traced run pay one atomic load. Samples are kept
// apart by the kind of round (unthrottled or paced) they were taken in.
type recorder struct {
	on    atomic.Bool
	paced atomic.Bool

	mu      sync.Mutex
	samples map[string][]int64
	spans   []span
	lost    int
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]int64)} }

func sampleKey(name string, paced bool) string {
	if paced {
		return name + "@paced"
	}
	return name
}

func (r *recorder) sample(name string, v int64) {
	key := sampleKey(name, r.paced.Load())
	r.mu.Lock()
	r.samples[key] = append(r.samples[key], v)
	r.mu.Unlock()
}

func (r *recorder) span(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.lost++
	}
	r.mu.Unlock()
}

func (r *recorder) take(name string, paced bool) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.samples[sampleKey(name, paced)]...)
}

// writeSpans writes the span log as JSON lines once the run has ended.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHost decorates the Host handed to the wire server (or driven by
// the in-process producer): it times Submit and Register from outside and
// wraps every alarm sink installed through SetAlarmRoute, so the time
// from Submit returning to the alarm firing is measured per sequence
// number. Nothing inside the program is instrumented.
type tracedHost struct {
	causaliot.Host
	rec   *recorder
	homes map[string]*home // read-only after setup

	registerNs atomic.Int64
}

func (t *tracedHost) Register(tenant string, sys *causaliot.System, opts causaliot.TenantOptions) error {
	t0 := nanos()
	err := t.Host.Register(tenant, sys, opts)
	t.registerNs.Add(nanos() - t0)
	return err
}

func (t *tracedHost) Submit(tenant string, ev causaliot.Event) error {
	if !t.rec.on.Load() {
		return t.Host.Submit(tenant, ev)
	}
	h := t.homes[tenant]
	t0 := nanos()
	err := t.Host.Submit(tenant, ev)
	t1 := nanos()
	if h == nil {
		return err
	}
	h.submitted.put(ev.Seq, t1)
	if ev.Seq%8 == 0 {
		t.rec.sample("host.submit_ns", t1-t0)
		if due, ok := h.due.get(ev.Seq); ok {
			t.rec.sample("wire.ingress_ns", t0-due)
		}
	}
	if ev.Seq%spanSample == 0 {
		t.rec.span(span{Name: "host.submit", Parent: "producer.send", Home: tenant, Seq: ev.Seq, Start: t0, End: t1})
	}
	return err
}

func (t *tracedHost) SetAlarmRoute(tenant string, sink func(causaliot.TenantAlarm)) error {
	h := t.homes[tenant]
	if sink == nil || h == nil {
		return t.Host.SetAlarmRoute(tenant, sink)
	}
	return t.Host.SetAlarmRoute(tenant, func(ta causaliot.TenantAlarm) {
		if t.rec.on.Load() {
			now := nanos()
			h.fired.put(ta.Seq, now)
			if ret, ok := h.submitted.get(ta.Seq); ok {
				t.rec.sample("host.detect_ns", now-ret)
				t.rec.span(span{Name: "host.detect", Parent: "host.submit", Home: tenant, Seq: ta.Seq, Start: ret, End: now})
			}
		}
		sink(ta)
	})
}

// countingListener counts the bytes the server reads from every accepted
// connection: the traffic the producers put on the wire.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}
