package causaliot

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/cluster"
	"github.com/causaliot/causaliot/internal/wire"
)

// startClusterWorker brings up one shard worker process-equivalent on a
// loopback listener and returns its address. The worker is torn down with
// the test.
func startClusterWorker(t *testing.T, cfg ClusterWorkerConfig) (*ClusterWorker, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	w, err := NewClusterWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Serve(ln) }()
	t.Cleanup(func() {
		_ = w.Close()
		<-done
	})
	return w, ln.Addr().String()
}

// clusterStream is servingStream without its unknown-device error
// injections: a worker refuses those asynchronously over the link (NACK)
// rather than from Submit, so they would skew a submitted-vs-processed
// comparison.
func clusterStream(n int, seed int64) []Event {
	var out []Event
	for _, ev := range servingStream(n, seed) {
		if ev.Device == "intruder" {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// drainCluster polls the router until want events are processed fleet-wide.
// Each poll is a wire round-trip per remote shard, so it backs off harder
// than the in-process drain helper.
func drainCluster(t *testing.T, f *Fleet, want uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := f.Stats().Total.Processed
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster stalled at %d/%d processed", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterServesLikeHub is the multi-process drop-in contract: the same
// homes fed the same events through a 2-worker cluster router — including a
// mid-stream cross-process migration — produce the same per-home alarm
// sequences and event counters as a single in-process Hub.
func TestClusterServesLikeHub(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	const homes = 4
	seq := clusterStream(120, 7)

	_, addr1 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2, QueueSize: 256}, Token: "s3cret"})
	_, addr2 := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 2, QueueSize: 256}, Token: "s3cret"})

	f, err := NewCluster(ClusterConfig{
		Workers: []RemoteShardConfig{
			{Addr: addr1, Token: "s3cret", Logf: t.Logf},
			{Addr: addr2, Token: "s3cret", Logf: t.Logf},
		},
		Hub: HubConfig{QueueSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var mu sync.Mutex
	got := make(map[string][]*Alarm)
	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		err := f.Register(name, sys, TenantOptions{
			OnAlarm: func(tenant string, a *Alarm, _ float64) {
				mu.Lock()
				got[tenant] = append(got[tenant], a)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}

	shards := f.Shards()
	if len(shards) != 2 {
		t.Fatalf("cluster has %d shards, want 2", len(shards))
	}
	// Stream the first half, migrate home-0 to the other worker process
	// mid-stream, then stream the rest.
	half := len(seq) / 2
	submit := func(lo, hi int) {
		for i := 0; i < homes; i++ {
			name := fmt.Sprintf("home-%d", i)
			for _, ev := range seq[lo:hi] {
				if err := f.Submit(name, ev); err != nil {
					t.Fatalf("submit %s: %v", name, err)
				}
			}
		}
	}
	submit(0, half)
	from, err := f.ShardOf("home-0")
	if err != nil {
		t.Fatal(err)
	}
	to := shards[0]
	if to == from {
		to = shards[1]
	}
	if err := f.Migrate("home-0", to); err != nil {
		t.Fatalf("cross-process migrate: %v", err)
	}
	if now, _ := f.ShardOf("home-0"); now != to {
		t.Fatalf("home-0 on shard %d after migration, want %d", now, to)
	}
	submit(half, len(seq))

	total := uint64(homes * len(seq))
	drainCluster(t, f, total)

	// Reference: one in-process hub, same homes, same stream.
	h := NewHub(HubConfig{Workers: 2, QueueSize: 256})
	want := make(map[string][]*Alarm)
	var wmu sync.Mutex
	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		err := h.Register(name, sys, TenantOptions{
			OnAlarm: func(tenant string, a *Alarm, _ float64) {
				wmu.Lock()
				want[tenant] = append(want[tenant], a)
				wmu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range seq {
			if err := h.Submit(name, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	if st.Total.Processed != total || st.Total.Dropped != 0 {
		t.Fatalf("cluster processed %d dropped %d, want %d/0", st.Total.Processed, st.Total.Dropped, total)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		ca, ha := got[name], want[name]
		if len(ca) != len(ha) {
			t.Fatalf("%s: cluster raised %d alarms, hub %d", name, len(ca), len(ha))
		}
		for j := range ca {
			if ca[j].Explain() != ha[j].Explain() {
				t.Fatalf("%s alarm %d diverges:\ncluster: %s\nhub:     %s", name, j, ca[j].Explain(), ha[j].Explain())
			}
		}
	}

	// Per-shard health: every shard remote, connected, with envelope bytes
	// moved by registration (and the migration's export on one side).
	fs := f.FleetStats()
	if len(fs.Shards) != 2 {
		t.Fatalf("FleetStats has %d shards", len(fs.Shards))
	}
	for _, ss := range fs.Shards {
		h := ss.Health
		if !h.Remote || h.Link != "connected" || h.Addr == "" {
			t.Fatalf("shard %d health %+v, want connected remote", ss.Shard, h)
		}
		if h.EnvelopeBytesOut == 0 {
			t.Fatalf("shard %d shows no envelope bytes shipped", ss.Shard)
		}
	}
	if fs.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", fs.Migrations)
	}
}

// TestClusterExportMatchesWorker proves the router-side Export surface
// fetches the same envelope bytes the worker would produce locally.
func TestClusterExportMatchesWorker(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	w, addr := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{QueueSize: 64}})

	f, err := NewCluster(ClusterConfig{Workers: []RemoteShardConfig{{Addr: addr, Logf: t.Logf}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	seq := clusterStream(30, 11)
	for _, ev := range seq {
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	drainCluster(t, f, uint64(len(seq)))

	model, state, err := f.shard(f.Shards()[0]).ExportEnvelope("home")
	if err != nil {
		t.Fatal(err)
	}
	wModel, wState, err := w.Hub().ExportEnvelope("home")
	if err != nil {
		t.Fatal(err)
	}
	if string(model) != string(wModel) || string(state) != string(wState) {
		t.Fatal("router-side export differs from worker-local export")
	}

	// The envelope restores into a working monitor.
	sys2, err := Load(bytes.NewReader(model))
	if err != nil {
		t.Fatalf("loading exported model: %v", err)
	}
	if _, err := sys2.RestoreMonitor(bytes.NewReader(state)); err != nil {
		t.Fatalf("restoring exported state: %v", err)
	}

	doc, err := w.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 {
		t.Fatal("empty worker stats document")
	}
}

// TestClusterSentinelMapping is the facade error contract: every cluster
// NACK / error code a worker or link can produce maps onto the exact
// sentinel an in-process hub would have returned, so errors.Is-based
// handling is transport-agnostic.
func TestClusterSentinelMapping(t *testing.T) {
	codeCases := []struct {
		code wire.Code
		want error
	}{
		{wire.CodeBackpressure, ErrBackpressure},
		{wire.CodeQuarantined, ErrQuarantined},
		{wire.CodeUnknownDevice, ErrUnknownDevice},
		{wire.CodeValueOutOfRange, ErrValueOutOfRange},
		{wire.CodeUnknownTenant, ErrUnknownTenant},
		{wire.CodeBadAuth, ErrBadAuth},
		{wire.CodeClosed, ErrHubClosed},
		{wire.CodeProtocol, nil}, // no sentinel: the transported detail wins
		{wire.CodeInternal, nil},
	}
	for _, tc := range codeCases {
		t.Run(fmt.Sprintf("ShardErr/%s", tc.code), func(t *testing.T) {
			in := wire.ShardErr{Op: wire.OpQuiesce, Tenant: "h", Code: tc.code, Detail: "boom"}
			out := clusterFacadeError(in)
			if tc.want == nil {
				var se wire.ShardErr
				if !errors.As(out, &se) || se.Code != tc.code {
					t.Fatalf("code %d should pass through, got %v", tc.code, out)
				}
				return
			}
			if !errors.Is(out, tc.want) {
				t.Fatalf("code %d mapped to %v, want %v", tc.code, out, tc.want)
			}
		})
		t.Run(fmt.Sprintf("ShardNack/%s", tc.code), func(t *testing.T) {
			in := wire.ShardNack{Tenant: "h", Link: 7, Code: tc.code}
			out := clusterFacadeError(in)
			if tc.want == nil {
				var sn wire.ShardNack
				if !errors.As(out, &sn) || sn.Code != tc.code {
					t.Fatalf("code %d should pass through, got %v", tc.code, out)
				}
				return
			}
			if !errors.Is(out, tc.want) {
				t.Fatalf("code %d mapped to %v, want %v", tc.code, out, tc.want)
			}
		})
	}

	linkCases := []struct {
		name string
		in   error
		want error
	}{
		{"unknown-tenant", cluster.ErrUnknownTenant, ErrUnknownTenant},
		{"proxy-closed", cluster.ErrProxyClosed, ErrHubClosed},
		{"link-down", cluster.ErrLinkDown, ErrShardUnavailable},
		{"link-gave-up", cluster.ErrLinkGaveUp, ErrShardUnavailable},
		{"control-timeout", cluster.ErrControlTimeout, ErrShardUnavailable},
		{"nil", nil, nil},
	}
	for _, tc := range linkCases {
		t.Run("link/"+tc.name, func(t *testing.T) {
			out := clusterFacadeError(tc.in)
			if tc.want == nil {
				if out != nil {
					t.Fatalf("got %v, want nil", out)
				}
				return
			}
			if !errors.Is(out, tc.want) {
				t.Fatalf("%v mapped to %v, want %v", tc.in, out, tc.want)
			}
			// The original cluster error stays inspectable under the facade
			// sentinel.
			if !errors.Is(out, tc.in) {
				t.Fatalf("%v lost the underlying error: %v", tc.in, out)
			}
		})
	}

	// End-to-end: a live worker refusing auth / unknown tenants surfaces
	// the same sentinels through the full stack.
	_, addr := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{QueueSize: 16}, Token: "right"})
	if _, err := NewCluster(ClusterConfig{Workers: []RemoteShardConfig{{Addr: addr, Token: "wrong", Logf: t.Logf}}}); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("bad token gave %v, want ErrBadAuth", err)
	}
	f, err := NewCluster(ClusterConfig{Workers: []RemoteShardConfig{{Addr: addr, Token: "right", Logf: t.Logf}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.shard(f.Shards()[0]).Quiesce("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("quiescing unknown tenant gave %v, want ErrUnknownTenant", err)
	}
	if err := f.Submit("ghost", Event{Device: "d", Value: 1}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submitting to unknown tenant gave %v, want ErrUnknownTenant", err)
	}
}

// TestOutOfRangePolicyInheritsDefault pins the policy range check: a
// backpressure value outside Block..Reject — set in TenantOptions, or a
// policy byte in a cluster register frame, which comes from outside the
// process — inherits the hub's configured policy, as BackpressureDefault
// does.
func TestOutOfRangePolicyInheritsDefault(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 1, Backpressure: BackpressureReject})
	defer h.Close()
	if err := h.Register("home", sys, TenantOptions{QueueSize: 1, Backpressure: BackpressurePolicy(9)}); err != nil {
		t.Fatal(err)
	}
	requireRejects(t, h, "home")

	w, addr := startClusterWorker(t, ClusterWorkerConfig{Hub: HubConfig{Workers: 1, Backpressure: BackpressureReject}})
	rs, err := openRemoteShard(RemoteShardConfig{Addr: addr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.p.Close()
	var model bytes.Buffer
	if err := sys.Save(&model); err != nil {
		t.Fatal(err)
	}
	if err := rs.p.Register("home", model.Bytes(), nil, 1, 7, false, nil); err != nil {
		t.Fatal(err)
	}
	requireRejects(t, w.Hub(), "home")
}

// requireRejects holds a home's stream paused inside an Export and submits
// into its one-slot queue: a Reject home refuses with ErrBackpressure, where
// a Block home would wait for the pause to end.
func requireRejects(t *testing.T, h *Hub, tenant string) {
	t.Helper()
	pw := &pausingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	exported := make(chan error, 1)
	go func() { exported <- h.Export(tenant, ExportOptions{Model: pw}) }()
	<-pw.entered
	refused := make(chan error, 1)
	go func() {
		for i := 0; i < 8; i++ {
			if err := h.Submit(tenant, Event{Time: t0, Device: "presence", Value: 1}); err != nil {
				refused <- err
				return
			}
		}
		refused <- nil
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrBackpressure) {
			t.Errorf("%s: submits into a full queue returned %v, want ErrBackpressure", tenant, err)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("%s: a submit into a full queue waited: the home did not inherit BackpressureReject", tenant)
	}
	close(pw.release)
	if err := <-exported; err != nil {
		t.Fatal(err)
	}
}

// pausingWriter blocks its first Write until release is closed, signalling
// entered when it starts waiting.
type pausingWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *pausingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}
