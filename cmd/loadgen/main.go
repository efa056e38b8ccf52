// Command loadgen drives a causaliot wire server with many concurrent
// producer connections and reports sustained throughput and alarm push-back
// latency percentiles — the load side of the million-home serving story.
//
//	loadgen -self-serve -conns 64 -rate 2000
//	loadgen -addr 10.0.0.5:9070 -token secret -conns 256 -homes 256
//	loadgen -self-serve -conns 16 -chaos 42
//
// Every producer is a fault-tolerant session client. -chaos SEED routes
// every connection through the deterministic network-chaos proxy (seeded
// kills, corruptions, trickles); the report then carries reconnect counts
// and recovery-latency percentiles alongside the usual throughput numbers.
//
// Traffic is synthesized in memory from the simulation testbeds (no CSV
// files touched): one training log builds the model (-models K builds K
// distinct models and deals homes across them), and each connection
// replays a runtime log as sequence-numbered event frames, looping with a
// time shift when it runs out. Every event's send time is recorded; when an
// alarm frame comes back, the echoed sequence number keys the push-back
// latency sample. With -self-serve the server side (hub or sharded fleet +
// wire listener) is booted in-process on a loopback port, and its counters
// join the report so alarm accounting can be checked end to end.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/hub"
	"github.com/causaliot/causaliot/internal/netchaos"
	"github.com/causaliot/causaliot/internal/sim"
	"github.com/causaliot/causaliot/internal/wire"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

type config struct {
	addr      string
	selfServe bool
	conns     int
	homes     int
	models    int
	events    int
	rate      float64
	days      int
	trainDays int
	seed      int64
	chaos     int64
	testbed   string
	token     string
	tau       int
	kmax      int
	shards    int
	cluster   int
	migrate   int
	workers   int
	queue     int
	policy    string
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "", "wire server address to dial (mutually exclusive with -self-serve)")
	fs.BoolVar(&cfg.selfServe, "self-serve", false, "boot the server in-process on a loopback port")
	fs.IntVar(&cfg.conns, "conns", 8, "concurrent producer connections")
	fs.IntVar(&cfg.homes, "homes", 0, "homes to spread connections across (0 = one per connection)")
	fs.IntVar(&cfg.models, "models", 1, "distinct self-served models to spread homes across (requires -self-serve)")
	fs.IntVar(&cfg.events, "events", 0, "events per connection (0 = one full runtime log)")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-connection send rate in events/sec (0 = unthrottled)")
	fs.IntVar(&cfg.days, "days", 1, "simulated days of runtime traffic per lap")
	fs.IntVar(&cfg.trainDays, "train-days", 2, "simulated days of training traffic")
	fs.Int64Var(&cfg.seed, "seed", 1, "traffic synthesis seed")
	fs.Int64Var(&cfg.chaos, "chaos", 0, "route traffic through a seeded network-chaos proxy (0 = off)")
	fs.StringVar(&cfg.testbed, "testbed", "contextact", "testbed to synthesize: contextact|casas")
	fs.StringVar(&cfg.token, "token", "", "auth token to present in Hello")
	fs.IntVar(&cfg.tau, "tau", 2, "maximum time lag for the self-served model (0 = automatic)")
	fs.IntVar(&cfg.kmax, "kmax", 1, "maximum anomaly chain length for the self-served model")
	fs.IntVar(&cfg.shards, "shards", 1, "self-serve hub shards (>1 serves through a Fleet)")
	fs.IntVar(&cfg.cluster, "cluster", 0, "serve through N in-process cluster shard workers over the shard control plane (requires -self-serve)")
	fs.IntVar(&cfg.migrate, "migrations", 0, "cross-process live migrations of home-0 to run mid-load (requires -cluster)")
	fs.IntVar(&cfg.workers, "workers", 0, "self-serve worker pool size per shard (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queue, "queue", 1024, "self-serve per-home ingestion queue capacity")
	fs.StringVar(&cfg.policy, "policy", "block", "self-serve backpressure policy: block|drop-oldest|reject")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.addr == "" && !cfg.selfServe {
		return cfg, errors.New("one of -addr or -self-serve is required")
	}
	if cfg.addr != "" && cfg.selfServe {
		return cfg, errors.New("-addr and -self-serve are mutually exclusive")
	}
	if cfg.conns < 1 {
		return cfg, fmt.Errorf("-conns %d < 1", cfg.conns)
	}
	if cfg.homes < 0 {
		return cfg, fmt.Errorf("-homes %d < 0", cfg.homes)
	}
	if cfg.homes == 0 {
		cfg.homes = cfg.conns
	}
	if cfg.models < 1 {
		return cfg, fmt.Errorf("-models %d < 1", cfg.models)
	}
	if cfg.models > 1 && !cfg.selfServe {
		return cfg, errors.New("-models > 1 requires -self-serve (a remote server owns its own models)")
	}
	if cfg.events < 0 {
		return cfg, fmt.Errorf("-events %d < 0", cfg.events)
	}
	if cfg.rate < 0 {
		return cfg, fmt.Errorf("-rate %g < 0", cfg.rate)
	}
	if cfg.days < 1 || cfg.trainDays < 1 {
		return cfg, fmt.Errorf("-days %d and -train-days %d must be >= 1", cfg.days, cfg.trainDays)
	}
	if cfg.tau < 0 {
		return cfg, fmt.Errorf("-tau %d < 0", cfg.tau)
	}
	if cfg.kmax < 1 {
		return cfg, fmt.Errorf("-kmax %d < 1", cfg.kmax)
	}
	if cfg.shards < 1 {
		return cfg, fmt.Errorf("-shards %d < 1", cfg.shards)
	}
	if cfg.cluster < 0 {
		return cfg, fmt.Errorf("-cluster %d < 0", cfg.cluster)
	}
	if cfg.cluster > 0 && !cfg.selfServe {
		return cfg, errors.New("-cluster requires -self-serve")
	}
	if cfg.cluster > 0 && cfg.shards > 1 {
		return cfg, errors.New("-cluster and -shards are mutually exclusive (the workers are the shards)")
	}
	if cfg.migrate < 0 {
		return cfg, fmt.Errorf("-migrations %d < 0", cfg.migrate)
	}
	if cfg.migrate > 0 && cfg.cluster < 2 {
		return cfg, errors.New("-migrations requires -cluster with at least 2 workers")
	}
	if cfg.workers < 0 {
		return cfg, fmt.Errorf("-workers %d < 0", cfg.workers)
	}
	if cfg.queue < 1 {
		return cfg, fmt.Errorf("-queue %d < 1", cfg.queue)
	}
	return cfg, nil
}

// latencyReport is one percentile summary over alarm push-back round trips
// (event send to alarm frame receipt), in nanoseconds.
type latencyReport struct {
	Samples int   `json:"samples"`
	P50     int64 `json:"p50_ns"`
	P95     int64 `json:"p95_ns"`
	P99     int64 `json:"p99_ns"`
	Max     int64 `json:"max_ns"`
}

// serverReport carries the self-served server's own counters so the report
// is a closed system: alarms raised must equal alarms pushed plus the drops
// the server admits to.
type serverReport struct {
	Wire  causaliot.WireStats   `json:"wire"`
	Hub   causaliot.HubStats    `json:"hub"`
	Fleet *causaliot.FleetStats `json:"fleet,omitempty"`
}

// chaosReport summarizes a -chaos run: what the proxy injected and how the
// session producers recovered. Recovery latency spans connection death to
// resumed-and-retransmitted, per successful reconnect.
type chaosReport struct {
	Seed            int64          `json:"seed"`
	Reconnects      uint64         `json:"reconnects"`
	Retransmits     uint64         `json:"retransmits"`
	GaveUp          int            `json:"gave_up"`
	RecoveryLatency latencyReport  `json:"recovery_latency"`
	Proxy           netchaos.Stats `json:"proxy"`
}

// clusterReport summarizes a -cluster run: the worker processes behind the
// router and the wall time of each mid-load cross-process live migration
// (quiesce, envelope transfer, restore, gap replay).
type clusterReport struct {
	Workers          int           `json:"workers"`
	Migrations       int           `json:"migrations"`
	MigrationsFailed int           `json:"migrations_failed,omitempty"`
	MigrationWall    latencyReport `json:"migration_wall"`
}

type report struct {
	Conns        int            `json:"conns"`
	Homes        int            `json:"homes"`
	Models       int            `json:"models,omitempty"`
	EventsSent   uint64         `json:"events_sent"`
	EventsNacked uint64         `json:"events_nacked"`
	Alarms       uint64         `json:"alarms_received"`
	ElapsedMS    int64          `json:"elapsed_ms"`
	EventsPerSec float64        `json:"events_per_sec"`
	AlarmLatency latencyReport  `json:"alarm_latency"`
	Chaos        *chaosReport   `json:"chaos,omitempty"`
	Cluster      *clusterReport `json:"cluster,omitempty"`
	Server       *serverReport  `json:"server,omitempty"`
}

// loadDevices converts a testbed inventory to the public API's device
// descriptions (loadgen is its own main package, so it carries its own copy
// of this adapter).
func loadDevices(tb *sim.Testbed) ([]causaliot.Device, error) {
	var out []causaliot.Device
	for _, d := range tb.Devices {
		var typ causaliot.DeviceType
		switch d.Attribute.Name {
		case event.Switch.Name:
			typ = causaliot.Switch
		case event.PresenceSensor.Name:
			typ = causaliot.Presence
		case event.ContactSensor.Name:
			typ = causaliot.Contact
		case event.Dimmer.Name:
			typ = causaliot.Dimmer
		case event.WaterMeter.Name:
			typ = causaliot.WaterMeter
		case event.PowerSensor.Name:
			typ = causaliot.Power
		case event.BrightnessSensor.Name:
			typ = causaliot.Brightness
		default:
			return nil, fmt.Errorf("device %q has unsupported attribute %q", d.Name, d.Attribute.Name)
		}
		out = append(out, causaliot.Device{Name: d.Name, Type: typ, Location: d.Location})
	}
	return out, nil
}

func synthesize(tb *sim.Testbed, seed int64, days int) ([]causaliot.Event, error) {
	simulator, err := sim.NewSimulator(tb, sim.Config{Seed: seed, Days: days})
	if err != nil {
		return nil, err
	}
	log, err := simulator.Run()
	if err != nil {
		return nil, err
	}
	out := make([]causaliot.Event, len(log))
	for i, e := range log {
		out[i] = causaliot.Event{Time: e.Timestamp, Device: e.Device, Value: e.Value}
	}
	return out, nil
}

// producer is one session's load state. Send times are indexed by
// sequence number (seq-1) and read from the client's alarm callback, so
// they are atomics; latencies are collected under the mutex.
type producer struct {
	session   *wire.SessionClient
	sendTimes []int64 // unix nanos, atomic
	nacked    atomic.Uint64
	alarms    atomic.Uint64

	mu        sync.Mutex
	latencies []int64
}

func (p *producer) onAlarm(a wire.Alarm) {
	p.alarms.Add(1)
	if a.Seq == 0 || a.Seq > uint64(len(p.sendTimes)) {
		return // completed by another connection's event, or unsequenced
	}
	sent := atomic.LoadInt64(&p.sendTimes[a.Seq-1])
	if sent == 0 {
		return
	}
	lat := time.Now().UnixNano() - sent
	p.mu.Lock()
	p.latencies = append(p.latencies, lat)
	p.mu.Unlock()
}

// run replays the stream as sequence-numbered frames, looping with a time
// shift so event time never runs backwards, pacing to cfg.rate if set.
func (p *producer) run(cfg config, stream []causaliot.Event) error {
	span := stream[len(stream)-1].Time.Sub(stream[0].Time) + time.Minute
	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.rate)
	}
	start := time.Now()
	for i := 0; i < cfg.events; i++ {
		ev := stream[i%len(stream)]
		shift := time.Duration(i/len(stream)) * span
		atomic.StoreInt64(&p.sendTimes[i], time.Now().UnixNano())
		err := p.send(wire.Event{
			Seq:    uint64(i + 1),
			Time:   ev.Time.Add(shift),
			Device: ev.Device,
			Value:  ev.Value,
		})
		if err != nil {
			return err
		}
		if interval > 0 {
			if ahead := time.Duration(i+1)*interval - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	return p.session.Flush()
}

// send forwards one event, absorbing the session window's typed
// backpressure. A connected session's Send waits for window room itself;
// ErrSendWindowFull comes only while the session is degraded, and the run
// retries until it resumes instead of failing.
func (p *producer) send(ev wire.Event) error {
	for {
		err := p.session.Send(ev)
		if err == nil || !errors.Is(err, wire.ErrSendWindowFull) {
			return err
		}
		p.session.Flush()
		time.Sleep(time.Millisecond)
	}
}

func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// runLoad executes one load run: optionally boot the server, dial the
// connections, replay the synthesized traffic, and assemble the report.
func runLoad(cfg config) (*report, error) {
	var tb *sim.Testbed
	switch cfg.testbed {
	case "contextact":
		tb = sim.ContextActLike()
	case "casas":
		tb = sim.CASASLike()
	default:
		return nil, fmt.Errorf("unknown testbed %q", cfg.testbed)
	}
	stream, err := synthesize(tb, cfg.seed+1, cfg.days)
	if err != nil {
		return nil, err
	}
	if len(stream) == 0 {
		return nil, errors.New("synthesized an empty runtime stream")
	}
	if cfg.events == 0 {
		cfg.events = len(stream)
	}

	// -self-serve: train once, host every home on a hub or fleet, and put
	// it on a loopback listener — the same stack `causaliot serve -listen`
	// runs, minus the CLI.
	addr := cfg.addr
	var h causaliot.Host
	var ws *causaliot.WireServer
	serveDone := make(chan error, 1)
	if cfg.selfServe {
		policy, err := hub.ParsePolicy(cfg.policy)
		if err != nil {
			return nil, err
		}
		devices, err := loadDevices(tb)
		if err != nil {
			return nil, err
		}
		// -models K trains K distinct systems (differing training seeds) and
		// deals homes across them round-robin — the many-tenants-few-models
		// fleet shape, where the model cache and same-model batch scheduling
		// carry the load. Seed offsets keep model 0 identical to the single
		// -models run and clear of the runtime stream's cfg.seed+1.
		if cfg.models < 1 {
			cfg.models = 1 // zero-value config (tests build it directly)
		}
		systems := make([]*causaliot.System, cfg.models)
		for m := range systems {
			trainSeed := cfg.seed
			if m > 0 {
				trainSeed += int64(1000 * m)
			}
			trainLog, err := synthesize(tb, trainSeed, cfg.trainDays)
			if err != nil {
				return nil, err
			}
			systems[m], err = causaliot.Train(devices, trainLog, causaliot.Config{Tau: cfg.tau, KMax: cfg.kmax})
			if err != nil {
				return nil, err
			}
		}
		hubCfg := causaliot.HubConfig{Workers: cfg.workers, QueueSize: cfg.queue, Backpressure: policy}
		switch {
		case cfg.cluster > 0:
			// -cluster N: the serving side is a router over N in-process
			// shard workers, each reached through the cluster wire
			// protocol — the full multi-process data path on loopback.
			remotes := make([]causaliot.RemoteShardConfig, cfg.cluster)
			for i := range remotes {
				cw, err := causaliot.NewClusterWorker(causaliot.ClusterWorkerConfig{Hub: hubCfg, Token: cfg.token})
				if err != nil {
					return nil, err
				}
				wln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					cw.Close()
					return nil, err
				}
				go cw.Serve(wln)
				defer cw.Close()
				remotes[i] = causaliot.RemoteShardConfig{Addr: wln.Addr().String(), Token: cfg.token}
			}
			h, err = causaliot.NewCluster(causaliot.ClusterConfig{Workers: remotes, Hub: hubCfg})
			if err != nil {
				return nil, err
			}
		case cfg.shards > 1:
			h = causaliot.NewFleet(causaliot.FleetConfig{Shards: cfg.shards, Hub: hubCfg})
		default:
			h = causaliot.NewHub(hubCfg)
		}
		defer h.Close()
		for i := 0; i < cfg.homes; i++ {
			if err := h.Register(fmt.Sprintf("home-%d", i), systems[i%cfg.models], causaliot.TenantOptions{}); err != nil {
				return nil, err
			}
		}
		// Homes without a live producer still deliver to Alarms(); keep it
		// drained so fleet fan-in never backs up on our account.
		go func() {
			for range h.Alarms() {
			}
		}()
		ws, err = causaliot.NewWireServer(h, causaliot.WireConfig{Token: cfg.token})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
		go func() { serveDone <- ws.Serve(ln) }()
		defer func() {
			ws.Close()
			<-serveDone
		}()
	}

	// -chaos SEED interposes the deterministic network-chaos proxy, so the
	// run measures the sessions' recovery behaviour.
	var proxy *netchaos.Proxy
	if cfg.chaos != 0 {
		proxy, err = netchaos.New(netchaos.Config{
			Target:    addr,
			Seed:      cfg.chaos,
			Weights:   netchaos.Weights{Kill: 0.35, Corrupt: 0.1, Trickle: 0.1},
			MinFrames: 50,
			MaxFrames: 500,
		})
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		addr = proxy.Addr()
	}

	producers := make([]*producer, cfg.conns)
	for i := range producers {
		p := &producer{sendTimes: make([]int64, cfg.events)}
		sc, err := wire.OpenSession(wire.SessionConfig{
			Addr:    addr,
			Session: fmt.Sprintf("loadgen-%d", i),
			Client: wire.ClientConfig{
				Token:   cfg.token,
				Tenant:  fmt.Sprintf("home-%d", i%cfg.homes),
				OnNack:  func(wire.Nack) { p.nacked.Add(1) },
				OnAlarm: p.onAlarm,
			},
			BackoffMin:  5 * time.Millisecond,
			BackoffMax:  500 * time.Millisecond,
			MaxAttempts: 1 << 20,
			JitterSeed:  cfg.chaos + int64(i),
		})
		if err != nil {
			for _, q := range producers[:i] {
				q.session.Close()
			}
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		p.session = sc
		producers[i] = p
	}

	start := time.Now()
	// -migrations: bounce home-0 between worker processes while its
	// producer streams, timing each full handoff.
	migDone := make(chan struct{})
	var migWall []int64
	migFailed := 0
	if cfg.migrate > 0 {
		f := h.(*causaliot.Fleet)
		go func() {
			defer close(migDone)
			ids := f.Shards()
			for k := 0; k < cfg.migrate; k++ {
				cur, err := f.ShardOf("home-0")
				if err != nil {
					migFailed++
					continue
				}
				to := ids[0]
				for _, id := range ids {
					if id != cur {
						to = id
						break
					}
				}
				t0 := time.Now()
				if err := f.Migrate("home-0", to); err != nil {
					migFailed++
				} else {
					migWall = append(migWall, int64(time.Since(t0)))
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	} else {
		close(migDone)
	}
	errc := make(chan error, cfg.conns)
	var wg sync.WaitGroup
	for _, p := range producers {
		wg.Add(1)
		go func(p *producer) {
			defer wg.Done()
			if err := p.run(cfg, stream); err != nil {
				errc <- err
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-migDone
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	// Events may still sit in retransmit windows after the send loops
	// finish, unacknowledged or awaiting a resume; keep flushing until every
	// session drains (or the grace period runs out — a gave-up session
	// never will).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		pending := 0
		for _, p := range producers {
			if p.session.Err() != nil {
				continue // gave up: its window will never drain
			}
			pending += p.session.Pending()
			p.session.Flush()
			p.session.Ping() // a session ping flushes the server's cumulative ack
		}
		if pending == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let in-flight events finish processing so trailing alarms make it
	// back before the connections close. Self-serve waits, bounded, until
	// every alarm is accounted for; a remote server exposes no counters, so
	// it gets a fixed grace period.
	if cfg.selfServe {
		deadline := time.Now().Add(30 * time.Second)
		sent := uint64(cfg.conns * cfg.events)
		for !alarmsSettled(h, ws, producers, sent) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	} else {
		time.Sleep(200 * time.Millisecond)
	}
	for _, p := range producers {
		if err := p.session.Close(); err != nil {
			return nil, err
		}
	}

	rep := &report{
		Conns:     cfg.conns,
		Homes:     cfg.homes,
		ElapsedMS: elapsed.Milliseconds(),
	}
	if cfg.selfServe {
		rep.Models = cfg.models
	}
	var latencies []int64
	for _, p := range producers {
		rep.EventsSent += uint64(cfg.events)
		rep.EventsNacked += p.nacked.Load()
		rep.Alarms += p.alarms.Load()
		p.mu.Lock()
		latencies = append(latencies, p.latencies...)
		p.mu.Unlock()
	}
	rep.EventsPerSec = float64(rep.EventsSent) / elapsed.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.AlarmLatency = latencyReport{
		Samples: len(latencies),
		P50:     percentile(latencies, 0.50),
		P95:     percentile(latencies, 0.95),
		P99:     percentile(latencies, 0.99),
	}
	if n := len(latencies); n > 0 {
		rep.AlarmLatency.Max = latencies[n-1]
	}
	if cfg.chaos != 0 {
		cr := &chaosReport{Seed: cfg.chaos}
		var recov []int64
		for _, p := range producers {
			st := p.session.Stats()
			cr.Reconnects += st.Reconnects
			cr.Retransmits += st.Retransmits
			if st.State == wire.StateGaveUp {
				cr.GaveUp++
			}
			for _, d := range st.Recoveries {
				recov = append(recov, int64(d))
			}
		}
		sort.Slice(recov, func(i, j int) bool { return recov[i] < recov[j] })
		cr.RecoveryLatency = latencyReport{
			Samples: len(recov),
			P50:     percentile(recov, 0.50),
			P95:     percentile(recov, 0.95),
			P99:     percentile(recov, 0.99),
		}
		if n := len(recov); n > 0 {
			cr.RecoveryLatency.Max = recov[n-1]
		}
		cr.Proxy = proxy.Stats()
		rep.Chaos = cr
	}
	if cfg.cluster > 0 {
		sort.Slice(migWall, func(i, j int) bool { return migWall[i] < migWall[j] })
		cr := &clusterReport{Workers: cfg.cluster, Migrations: len(migWall), MigrationsFailed: migFailed}
		cr.MigrationWall = latencyReport{
			Samples: len(migWall),
			P50:     percentile(migWall, 0.50),
			P95:     percentile(migWall, 0.95),
			P99:     percentile(migWall, 0.99),
		}
		if n := len(migWall); n > 0 {
			cr.MigrationWall.Max = migWall[n-1]
		}
		rep.Cluster = cr
	}
	if cfg.selfServe {
		ws.Close()
		sr := &serverReport{Wire: ws.Stats(), Hub: h.Stats()}
		if f, ok := h.(*causaliot.Fleet); ok {
			fst := f.FleetStats()
			sr.Fleet = &fst
		}
		rep.Server = sr
	}
	return rep, nil
}

// alarmsSettled reports whether all sent events reached the server and
// were decided, and every alarm they raised reached a producer or a drop
// counter. Queues can be empty while events are still in a socket or alarms
// on a worker→router link, so the check counts, not queue depth.
func alarmsSettled(h causaliot.Host, ws *causaliot.WireServer, producers []*producer, sent uint64) bool {
	var received uint64
	for _, p := range producers {
		received += p.alarms.Load()
	}
	st, wst := h.Stats().Total, ws.Stats()
	if wst.Events+wst.Nacks < sent || st.Processed+st.Dropped < wst.Events {
		return false
	}
	dropped := wst.AlarmsDropped
	if f, ok := h.(*causaliot.Fleet); ok {
		dropped += f.FleetStats().AlarmsDropped
	}
	return received+dropped == st.Alarms
}
