package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

// rawLink is a hand-driven router link to a worker.
type rawLink struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawLink {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	l := &rawLink{t: t, nc: nc, r: wire.NewReader(nc, 0)}
	hello, _ := wire.AppendShardHello(nil, "", "raw")
	l.write(hello)
	if ft, _ := l.next(); ft != wire.FrameShardWelcome {
		t.Fatalf("got %s, want shard-welcome", ft)
	}
	return l
}

func (l *rawLink) write(frame []byte) {
	l.t.Helper()
	if _, err := l.nc.Write(frame); err != nil {
		l.t.Fatal(err)
	}
}

func (l *rawLink) next() (wire.FrameType, []byte) {
	l.t.Helper()
	l.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, p, err := l.r.Next()
	if err != nil {
		l.t.Fatal(err)
	}
	return ft, p
}

func (l *rawLink) batch(tenant string, from, to uint64) {
	l.t.Helper()
	var bes []wire.BatchEvent
	for link := from; link <= to; link++ {
		bes = append(bes, wire.BatchEvent{Link: link, Ev: testEvent(link)})
	}
	frame, err := wire.AppendSubmitBatch(nil, tenant, bes)
	if err != nil {
		l.t.Fatal(err)
	}
	l.write(frame)
}

// reply reads the worker's answer to one batch, up to its ShardAck, as
// "nack L" and "ack W" lines.
func (l *rawLink) reply() []string {
	l.t.Helper()
	var got []string
	for {
		ft, p := l.next()
		switch ft {
		case wire.FrameShardNack:
			n, _ := wire.ParseShardNack(p)
			got = append(got, fmt.Sprintf("nack %d", n.Link))
		case wire.FrameShardAck:
			_, wm, _ := wire.ParseShardAck(p)
			return append(got, fmt.Sprintf("ack %d", wm))
		default:
			l.t.Fatalf("unexpected %s", ft)
		}
	}
}

// TestWorkerBatchDecide drives a worker's SubmitBatch decide path over a
// raw link: a refusal mid-batch is Nacked alone while the rest of the batch
// is admitted, a batch overlapping the watermark counts its prefix as
// duplicates, and each batch earns one cumulative ShardAck.
func TestWorkerBatchDecide(t *testing.T) {
	backend := newFakeBackend("")
	backend.submitErr = func(_ string, ev wire.Event) error {
		if ev.Seq == 3 {
			return errors.New("refused")
		}
		return nil
	}
	w, addr := startWorker(t, WorkerConfig{Backend: backend, AckEvery: 3})
	l := dialRaw(t, addr)
	reg, _ := wire.AppendRegisterTenant(nil, wire.RegisterTenant{Tenant: "t1"})
	chunk, _ := wire.AppendEnvelopeChunk(nil, wire.EnvelopeChunk{Tenant: "t1", Kind: wire.EnvModel, Data: []byte("m")})
	done, _ := wire.AppendTenantFrame(nil, wire.FrameEnvelopeDone, "t1")
	l.write(append(append(reg, chunk...), done...))
	if ft, _ := l.next(); ft != wire.FrameTenantOK {
		t.Fatalf("register: got %s", ft)
	}

	l.batch("t1", 1, 6)
	if got := fmt.Sprint(l.reply()); got != "[nack 3 ack 6]" {
		t.Fatalf("first batch replies %s, want [nack 3 ack 6]", got)
	}
	l.batch("t1", 4, 9)
	if got := fmt.Sprint(l.reply()); got != "[ack 9]" {
		t.Fatalf("overlapping batch replies %s, want [ack 9]", got)
	}
	if got := fmt.Sprint(backend.eventSeqs("t1")); got != "[1 2 4 5 6 7 8 9]" {
		t.Fatalf("admitted %s", got)
	}
	st := w.Stats()
	if st.Events != 8 || st.Nacks != 1 || st.Duplicates != 3 {
		t.Fatalf("events %d nacks %d duplicates %d, want 8, 1, 3 (12 received)", st.Events, st.Nacks, st.Duplicates)
	}
}

// TestProxySubmitBatchLargerThanWindow submits, under Block, one batch far
// larger than the tenant's window. The proxy must stream the events it
// banked before waiting for acks, or the acks never come.
func TestProxySubmitBatchLargerThanWindow(t *testing.T) {
	backend := newFakeBackend("")
	_, addr := startWorker(t, WorkerConfig{Backend: backend, AckEvery: 2})
	p, err := Open(ProxyConfig{Addr: addr, Window: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	if err := p.Register("t1", []byte("m"), nil, 0, 0, false, func(wire.Alarm) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	evs := make([]wire.Event, 100)
	for i := range evs {
		evs[i] = testEvent(uint64(i + 1))
	}
	res := make(chan error, 1)
	go func() {
		n, err := p.SubmitBatch("t1", evs)
		if err == nil && n != len(evs) {
			err = fmt.Errorf("accepted %d of %d", n, len(evs))
		}
		res <- err
	}()
	select {
	case err := <-res:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitBatch larger than the window never completed")
	}
	waitCond(t, 5*time.Second, "all events admitted", func() bool { return backend.eventCount("t1") == len(evs) })
	for i, s := range backend.eventSeqs("t1") {
		if s != uint64(i+1) {
			t.Fatalf("event %d has seq %d: order or loss", i, s)
		}
	}
}

// TestWorkerAckCountsDuplicates: a retransmitted batch entirely at or
// below the watermark counts toward AckEvery like fresh events, so it
// earns a ShardAck of its own.
func TestWorkerAckCountsDuplicates(t *testing.T) {
	backend := newFakeBackend("")
	w, addr := startWorker(t, WorkerConfig{Backend: backend, AckEvery: 3})
	l := dialRaw(t, addr)
	reg, _ := wire.AppendRegisterTenant(nil, wire.RegisterTenant{Tenant: "t1"})
	done, _ := wire.AppendTenantFrame(nil, wire.FrameEnvelopeDone, "t1")
	l.write(append(reg, done...))
	if ft, _ := l.next(); ft != wire.FrameTenantOK {
		t.Fatalf("register: got %s", ft)
	}
	for _, round := range []string{"fresh", "duplicate"} {
		l.batch("t1", 1, 3)
		if got := fmt.Sprint(l.reply()); got != "[ack 3]" {
			t.Fatalf("%s batch replies %s, want [ack 3]", round, got)
		}
	}
	if st := w.Stats(); st.Events != 3 || st.Duplicates != 3 {
		t.Fatalf("events %d duplicates %d, want 3 and 3", st.Events, st.Duplicates)
	}
}

// admitAll is a backend that admits every event without recording it.
type admitAll struct{ *fakeBackend }

func (admitAll) SubmitBatch(_ string, evs []wire.Event) (int, error) { return len(evs), nil }

// TestWorkerDecideZeroAlloc pins the worker's decide — one SubmitBatch
// frame through its tenant's watermark, the backend call and the
// cumulative ShardAck — at zero steady-state allocations.
func TestWorkerDecideZeroAlloc(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Backend: admitAll{newFakeBackend("")}})
	if err != nil {
		t.Fatal(err)
	}
	w.tenants["t1"] = &wkTenant{name: "t1"}
	a, peer := net.Pipe()
	defer a.Close()
	go io.Copy(io.Discard, peer)
	k := &link{w: w, l: wire.NewWriter(a, 1024, 0, 0, nil)}
	defer k.l.Finish()
	k.bes = make([]wire.BatchEvent, wire.MaxEventBatch)
	for i := range k.bes {
		k.bes[i].Ev = testEvent(uint64(i + 1))
	}
	var seq uint64
	run := func() {
		for i := range k.bes {
			seq++
			k.bes[i].Link = seq
		}
		k.tenant = "t1"
		if err := k.decide(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(1000, run); n != 0 {
		t.Fatalf("worker decide: %v allocs per %d-event batch, want 0", n, wire.MaxEventBatch)
	}
	if st := w.Stats(); st.Events != seq || st.Duplicates != 0 {
		t.Fatalf("events %d duplicates %d, want %d admitted", st.Events, st.Duplicates, seq)
	}
}
