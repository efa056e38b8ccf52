// Command causaliot is the CausalIoT command-line interface.
//
//	causaliot simulate -testbed contextact -days 7 -out events.csv
//	causaliot mine     -in events.csv -graph dig.dot
//	causaliot detect   -train train.csv -stream runtime.csv -kmax 3
//	causaliot serve    -train train.csv -stream runtime.csv -tenants 8 -workers 4
//
// simulate generates a synthetic smart-home event log; mine constructs the
// device interaction graph from a log and prints the identified
// interactions (optionally exporting Graphviz DOT); detect trains on one
// log and validates a second event stream, reporting anomaly alarms; serve
// hosts many concurrent homes on a serving hub and replays the stream to
// all of them in parallel, reporting throughput and per-home counters.
package main

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/hub"
	"github.com/causaliot/causaliot/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "causaliot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "simulate":
		return cmdSimulate(args[1:])
	case "mine":
		return cmdMine(args[1:])
	case "detect":
		return cmdDetect(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  causaliot simulate -testbed contextact|casas -days N -seed N -out FILE
  causaliot mine     -in FILE [-testbed contextact|casas] [-tau N] [-graph FILE]
  causaliot detect   -train FILE -stream FILE [-testbed contextact|casas] [-tau N] [-kmax N]
  causaliot serve    -train FILE (-stream FILE | -listen ADDR) [-testbed contextact|casas]
                     [-tau N] [-kmax N] [-tenants N] [-shards N] [-workers N] [-queue N]
                     [-policy block|drop-oldest|reject] [-auth-token TOKEN]
                     [-tls-cert FILE -tls-key FILE]
                     [-checkpoint FILE] [-resume] [-adapt] [-drift-q Q] [-refit-window N]
                     [-scan-every N] [-stats-interval DUR] [-v]
  causaliot serve    -worker -listen ADDR [-auth-token TOKEN] [-tls-cert FILE -tls-key FILE]
                     [-workers N] [-queue N] [-stats-interval DUR]
  causaliot serve    -train FILE (-stream FILE | -listen ADDR) -cluster ADDR1,ADDR2,...
                     [-auth-token TOKEN] [-tls-ca FILE] [...serve flags]`)
}

func pickTestbed(name string) (*sim.Testbed, error) {
	switch name {
	case "contextact":
		return sim.ContextActLike(), nil
	case "casas":
		return sim.CASASLike(), nil
	default:
		return nil, fmt.Errorf("unknown testbed %q", name)
	}
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	testbed := fs.String("testbed", "contextact", "testbed to simulate")
	days := fs.Int("days", 7, "simulated days")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "events.csv", "output CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days < 1 {
		return fmt.Errorf("simulate: -days %d < 1", *days)
	}
	tb, err := pickTestbed(*testbed)
	if err != nil {
		return err
	}
	simulator, err := sim.NewSimulator(tb, sim.Config{Seed: *seed, Days: *days})
	if err != nil {
		return err
	}
	log, err := simulator.Run()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := log.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d events from %s (%d days, seed %d) to %s\n", len(log), tb.Name, *days, *seed, *out)
	return nil
}

// publicDevices converts a testbed inventory to the public API's device
// descriptions.
func publicDevices(tb *sim.Testbed) ([]causaliot.Device, error) {
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

func loadEvents(path string) ([]causaliot.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := event.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	out := make([]causaliot.Event, len(log))
	for i, e := range log {
		out[i] = causaliot.Event{Time: e.Timestamp, Device: e.Device, Value: e.Value}
	}
	return out, nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	in := fs.String("in", "", "training event CSV")
	testbed := fs.String("testbed", "contextact", "device inventory to assume")
	tau := fs.Int("tau", 0, "maximum time lag (0 = automatic)")
	graphOut := fs.String("graph", "", "write Graphviz DOT to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("mine: -in is required")
	}
	if *tau < 0 {
		return fmt.Errorf("mine: -tau %d < 0", *tau)
	}
	tb, err := pickTestbed(*testbed)
	if err != nil {
		return err
	}
	devices, err := publicDevices(tb)
	if err != nil {
		return err
	}
	log, err := loadEvents(*in)
	if err != nil {
		return err
	}
	sys, err := causaliot.Train(devices, log, causaliot.Config{Tau: *tau})
	if err != nil {
		return err
	}
	ints := sys.Interactions()
	fmt.Printf("mined %d interactions (tau=%d, threshold=%.4f):\n", len(ints), sys.Tau(), sys.Threshold())
	for _, in := range ints {
		fmt.Printf("  %s -> %s (lag %d)\n", in.Cause, in.Outcome, in.Lag)
	}
	if *graphOut != "" {
		if err := os.WriteFile(*graphOut, []byte(sys.GraphDOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote graph to %s\n", *graphOut)
	}
	return nil
}

// serveCheckpointVersion guards the multi-home checkpoint file format.
// Version 2 adds an optional per-home model: an adaptive home hot-swaps
// retrained models at runtime, so resuming from the training file would
// silently discard every refresh the first life performed. Version 1 files
// (state only) still load.
const serveCheckpointVersion = 2

// serveHome is one home's entry in the serve checkpoint: the monitor
// checkpoint envelope, plus — for adaptive homes — the exact model that was
// being served when the snapshot was cut.
type serveHome struct {
	Model json.RawMessage `json:"model,omitempty"`
	State json.RawMessage `json:"state"`
}

// serveCheckpoint is the serve command's crash-recovery file: one
// per-monitor checkpoint envelope (see Monitor.WriteCheckpoint) per hosted
// home, so a restarted serve process resumes every home's stream where the
// checkpoint cut it.
type serveCheckpoint struct {
	Version int                  `json:"version"`
	Homes   map[string]serveHome `json:"homes"`
}

// writeServeCheckpoint exports every named home and atomically replaces
// the checkpoint file (write-then-rename, so a crash mid-write never leaves
// a truncated file behind). With withModel, each home's served model rides
// along, captured consistently with its state even if a background refresh
// is racing. Taking a Host, it checkpoints a single hub and a sharded
// fleet identically.
func writeServeCheckpoint(h causaliot.Host, names []string, path string, withModel bool) error {
	cp := serveCheckpoint{Version: serveCheckpointVersion, Homes: make(map[string]serveHome, len(names))}
	for _, name := range names {
		var home serveHome
		var model, state bytes.Buffer
		opts := causaliot.ExportOptions{State: &state}
		if withModel {
			opts.Model = &model
		}
		if err := h.Export(name, opts); err != nil {
			return fmt.Errorf("export %s: %w", name, err)
		}
		if withModel {
			home.Model = json.RawMessage(model.Bytes())
		}
		home.State = json.RawMessage(state.Bytes())
		cp.Homes[name] = home
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readServeCheckpoint(path string) (*serveCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("checkpoint file %s: %w", path, err)
	}
	switch head.Version {
	case 1:
		// State-only format: each home maps directly to its envelope.
		var v1 struct {
			Homes map[string]json.RawMessage `json:"homes"`
		}
		if err := json.Unmarshal(data, &v1); err != nil {
			return nil, fmt.Errorf("checkpoint file %s: %w", path, err)
		}
		cp := &serveCheckpoint{Version: serveCheckpointVersion, Homes: make(map[string]serveHome, len(v1.Homes))}
		for name, raw := range v1.Homes {
			cp.Homes[name] = serveHome{State: raw}
		}
		return cp, nil
	case serveCheckpointVersion:
		var cp serveCheckpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return nil, fmt.Errorf("checkpoint file %s: %w", path, err)
		}
		return &cp, nil
	default:
		return nil, fmt.Errorf("checkpoint file %s: unsupported version %d", path, head.Version)
	}
}

// listenReady, when non-nil, receives the bound listener address as soon as
// serve -listen is accepting. Test hook: lets a test dial a :0 listener.
var listenReady func(net.Addr)

// stderrLogf routes library log lines to stderr, keeping stdout for the
// human-readable report.
func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "causaliot: "+format+"\n", args...)
}

// serveWorker runs serve -worker: a cluster shard worker hosting whatever
// tenants a router ships it over the shard control plane, until a signal
// stops the process.
func serveWorker(listen, token string, hubCfg causaliot.HubConfig, tlsCfg *tls.Config, statsInterval time.Duration, stop <-chan struct{}) error {
	w, err := causaliot.NewClusterWorker(causaliot.ClusterWorkerConfig{
		Hub:   hubCfg,
		Token: token,
		Logf:  stderrLogf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		w.Close()
		return err
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	if listenReady != nil {
		listenReady(ln.Addr())
	}
	tlsNote := ""
	if tlsCfg != nil {
		tlsNote = ", TLS"
	}
	fmt.Printf("worker listening on %s (shard control plane%s)\n", ln.Addr(), tlsNote)

	statsDone := make(chan struct{})
	var statsWG sync.WaitGroup
	if statsInterval > 0 {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			tick := time.NewTicker(statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-statsDone:
					return
				case now := <-tick.C:
					doc, err := w.StatsJSON()
					if err != nil {
						continue
					}
					fmt.Fprintf(os.Stderr, "{\"time\":%q,\"worker\":%s}\n", now.Format(time.RFC3339Nano), doc)
				}
			}
		}()
	}

	start := time.Now()
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve(ln) }()
	var serveErr error
	interrupted := false
	select {
	case <-stop:
		interrupted = true
		fmt.Fprintln(os.Stderr, "causaliot: worker draining")
	case serveErr = <-serveDone:
	}

	// The final stats are read before Close tears the links down, so the
	// report reflects the serving session rather than the teardown.
	doc, statsErr := w.StatsJSON()
	closeErr := w.Close()
	if interrupted {
		serveErr = <-serveDone
	}
	close(statsDone)
	statsWG.Wait()
	if serveErr != nil {
		return fmt.Errorf("worker listener: %w", serveErr)
	}
	if statsErr == nil {
		var ws struct {
			Links            uint64 `json:"links"`
			Tenants          int    `json:"tenants"`
			Events           uint64 `json:"events"`
			Nacks            uint64 `json:"nacks"`
			Duplicates       uint64 `json:"duplicates"`
			Resumes          uint64 `json:"resumes"`
			Alarms           uint64 `json:"alarms"`
			AlarmReplays     uint64 `json:"alarm_replays"`
			EnvelopeBytesIn  uint64 `json:"envelope_bytes_in"`
			EnvelopeBytesOut uint64 `json:"envelope_bytes_out"`
			AuthFailures     uint64 `json:"auth_failures"`
		}
		if err := json.Unmarshal(doc, &ws); err == nil {
			elapsed := time.Since(start)
			fmt.Printf("worker served %d tenants over %d router links in %v\n",
				ws.Tenants, ws.Links, elapsed.Round(time.Millisecond))
			fmt.Printf("worker: %d events (%d duplicates dropped), %d nacks, %d resumes, %d alarms (%d replayed), envelope bytes in/out %d/%d, %d auth failures\n",
				ws.Events, ws.Duplicates, ws.Nacks, ws.Resumes, ws.Alarms, ws.AlarmReplays, ws.EnvelopeBytesIn, ws.EnvelopeBytesOut, ws.AuthFailures)
		}
	}
	return closeErr
}

// cmdServe trains once and hosts N copies of the home on a serving hub,
// replaying the runtime stream to every tenant concurrently — the
// multi-home deployment shape, driven from static files. With -listen it
// serves the network ingestion protocol instead: producers connect over
// TCP, stream binary event frames, and receive backpressure NACKs and
// alarm push-back on the same connection (see DESIGN.md §9).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	train := fs.String("train", "", "training event CSV")
	stream := fs.String("stream", "", "runtime event CSV to validate")
	listen := fs.String("listen", "", "serve the wire protocol on this TCP address instead of replaying -stream")
	authToken := fs.String("auth-token", "", "shared secret wire connections must present (requires -listen, -worker, or -cluster)")
	worker := fs.Bool("worker", false, "run as a cluster shard worker: serve the shard control plane on -listen; tenants and their models arrive from a router (no -train)")
	clusterList := fs.String("cluster", "", "comma-separated shard worker addresses; serve as a cluster router placing every home on these worker processes")
	tlsCert := fs.String("tls-cert", "", "serve -listen over TLS with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key matching -tls-cert")
	tlsCA := fs.String("tls-ca", "", "dial -cluster workers over TLS, verifying them against this PEM CA bundle")
	testbed := fs.String("testbed", "contextact", "device inventory to assume")
	tau := fs.Int("tau", 0, "maximum time lag (0 = automatic)")
	kmax := fs.Int("kmax", 1, "maximum anomaly chain length")
	tenants := fs.Int("tenants", 4, "number of homes to host")
	shards := fs.Int("shards", 1, "hub shards to spread homes across (>1 serves through a Fleet)")
	workers := fs.Int("workers", 0, "worker pool size per shard (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 1024, "per-home ingestion queue capacity")
	policyName := fs.String("policy", "block", "backpressure policy: block|drop-oldest|reject")
	checkpointPath := fs.String("checkpoint", "", "write a checkpoint of every home to this file on completion or SIGTERM")
	resume := fs.Bool("resume", false, "restore homes from the -checkpoint file and replay each stream from its recorded position")
	adapt := fs.Bool("adapt", false, "enable online model lifecycle: drift detection, background refit, automatic hot swap")
	driftQ := fs.Float64("drift-q", 0.001, "drift-test significance level (G² p-value threshold)")
	refitWindow := fs.Int("refit-window", 8192, "sliding training-log length for background refits, in accepted events")
	scanEvery := fs.Int("scan-every", 4096, "accepted events between drift scans")
	statsInterval := fs.Duration("stats-interval", 0, "emit hub and lifecycle stats as a JSON line to stderr at this interval (0 = off)")
	verbose := fs.Bool("v", false, "print each alarm as it is raised")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*tlsCert != "") != (*tlsKey != "") {
		return fmt.Errorf("serve: -tls-cert and -tls-key go together")
	}
	if *tlsCert != "" && *listen == "" {
		return fmt.Errorf("serve: -tls-cert requires -listen")
	}
	if *tlsCA != "" && *clusterList == "" {
		return fmt.Errorf("serve: -tls-ca requires -cluster")
	}
	if *worker {
		if *listen == "" {
			return fmt.Errorf("serve: -worker requires -listen")
		}
		// A worker hosts whatever a router ships it; flags that describe
		// local tenants or training would be silently inert, so refuse them.
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "train", "stream", "cluster", "checkpoint", "resume", "adapt",
				"tenants", "shards", "testbed", "tau", "kmax",
				"drift-q", "refit-window", "scan-every":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("serve: -worker does not take %s (tenants and models arrive from the router)", strings.Join(stray, ", "))
		}
	} else {
		if *train == "" {
			return fmt.Errorf("serve: -train is required")
		}
		if *stream == "" && *listen == "" {
			return fmt.Errorf("serve: one of -stream or -listen is required")
		}
		if *stream != "" && *listen != "" {
			return fmt.Errorf("serve: -stream and -listen are mutually exclusive")
		}
	}
	if *authToken != "" && *listen == "" && *clusterList == "" {
		return fmt.Errorf("serve: -auth-token requires -listen, -worker, or -cluster")
	}
	if *clusterList != "" {
		var strayShards bool
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				strayShards = true
			}
		})
		if strayShards {
			return fmt.Errorf("serve: -shards with -cluster has no effect (the workers are the shards)")
		}
	}
	if *tenants < 1 {
		return fmt.Errorf("serve: -tenants %d < 1", *tenants)
	}
	if *shards < 1 {
		return fmt.Errorf("serve: -shards %d < 1", *shards)
	}
	if *tau < 0 {
		return fmt.Errorf("serve: -tau %d < 0", *tau)
	}
	if *kmax < 1 {
		return fmt.Errorf("serve: -kmax %d < 1", *kmax)
	}
	if *workers < 0 {
		return fmt.Errorf("serve: -workers %d < 0", *workers)
	}
	if *queue < 1 {
		return fmt.Errorf("serve: -queue %d < 1", *queue)
	}
	if *statsInterval < 0 {
		return fmt.Errorf("serve: -stats-interval %v < 0", *statsInterval)
	}
	if *resume && *checkpointPath == "" {
		return fmt.Errorf("serve: -resume requires -checkpoint")
	}
	if !*adapt {
		// A lifecycle knob without -adapt would be silently inert; refuse it
		// loudly instead.
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "drift-q", "refit-window", "scan-every":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("serve: %s without -adapt has no effect", strings.Join(stray, ", "))
		}
	} else {
		if *driftQ <= 0 || *driftQ >= 1 {
			return fmt.Errorf("serve: -drift-q %g outside (0, 1)", *driftQ)
		}
		if *refitWindow < 1 {
			return fmt.Errorf("serve: -refit-window %d < 1", *refitWindow)
		}
		if *scanEvery < 1 {
			return fmt.Errorf("serve: -scan-every %d < 1", *scanEvery)
		}
	}

	// Catch SIGTERM/Ctrl-C from the start: a signal during training or
	// serving stops intake at the next event boundary, and the final
	// checkpoint records each home's exact position so a -resume run
	// replays the unserved tail.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	sigDone := make(chan struct{})
	defer close(sigDone)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
			fmt.Fprintln(os.Stderr, "causaliot: signal received, stopping intake")
			close(stop)
		case <-sigDone:
		}
	}()
	policy, err := hub.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	var tlsServer *tls.Config
	if *tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			return fmt.Errorf("serve: loading TLS key pair: %w", err)
		}
		tlsServer = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	}
	if *worker {
		hubCfg := causaliot.HubConfig{Workers: *workers, QueueSize: *queue, Backpressure: policy}
		return serveWorker(*listen, *authToken, hubCfg, tlsServer, *statsInterval, stop)
	}
	tb, err := pickTestbed(*testbed)
	if err != nil {
		return err
	}
	devices, err := publicDevices(tb)
	if err != nil {
		return err
	}
	trainLog, err := loadEvents(*train)
	if err != nil {
		return err
	}
	sys, err := causaliot.Train(devices, trainLog, causaliot.Config{Tau: *tau, KMax: *kmax})
	if err != nil {
		return err
	}
	var streamLog []causaliot.Event
	if *stream != "" {
		streamLog, err = loadEvents(*stream)
		if err != nil {
			return err
		}
	}

	// With -resume, each home's monitor is restored from the checkpoint
	// file and its producer skips the part of the stream the first life
	// already observed.
	var restored *serveCheckpoint
	if *resume {
		restored, err = readServeCheckpoint(*checkpointPath)
		if err != nil {
			return fmt.Errorf("serve: -resume: %w", err)
		}
	}

	// A single shard serves on a plain Hub; more serve through a Fleet.
	// Both satisfy Host, so the rest of the command is identical.
	hubCfg := causaliot.HubConfig{
		Workers:      *workers,
		QueueSize:    *queue,
		Backpressure: policy,
	}
	var h causaliot.Host
	switch {
	case *clusterList != "":
		// Router mode: every shard is a remote worker process. The homes
		// are trained here, serialized through the checkpoint envelope, and
		// served by the workers; alarms fan back in over the shard links.
		if *adapt {
			return fmt.Errorf("serve: -adapt does not cross process boundaries; run workers with their own lifecycle instead")
		}
		var dialTLS *tls.Config
		if *tlsCA != "" {
			pem, err := os.ReadFile(*tlsCA)
			if err != nil {
				return fmt.Errorf("serve: -tls-ca: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return fmt.Errorf("serve: -tls-ca %s holds no certificates", *tlsCA)
			}
			dialTLS = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
		}
		var remotes []causaliot.RemoteShardConfig
		for _, a := range strings.Split(*clusterList, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			remotes = append(remotes, causaliot.RemoteShardConfig{
				Addr:  a,
				Token: *authToken,
				TLS:   dialTLS,
				Logf:  stderrLogf,
			})
		}
		cf, err := causaliot.NewCluster(causaliot.ClusterConfig{Workers: remotes, Hub: hubCfg})
		if err != nil {
			return err
		}
		h = cf
		fmt.Printf("routing to %d worker shards\n", len(remotes))
	case *shards > 1:
		h = causaliot.NewFleet(causaliot.FleetConfig{Shards: *shards, Hub: hubCfg})
	default:
		h = causaliot.NewHub(hubCfg)
	}
	var opts causaliot.TenantOptions
	if *adapt {
		opts.Adapt = &causaliot.AdaptConfig{
			ScanEvery:   *scanEvery,
			DriftAlpha:  *driftQ,
			RefitWindow: *refitWindow,
		}
	}
	names := make([]string, *tenants)
	offset := make(map[string]int, *tenants)
	for i := 0; i < *tenants; i++ {
		name := fmt.Sprintf("home-%d", i)
		names[i] = name
		if restored != nil {
			home, ok := restored.Homes[name]
			if !ok {
				return fmt.Errorf("serve: checkpoint file has no entry for %s", name)
			}
			// An adaptive first life may have hot-swapped models; its
			// checkpoint embeds the model actually being served, which
			// takes precedence over the freshly trained one.
			base := sys
			if len(home.Model) > 0 {
				base, err = causaliot.Load(bytes.NewReader(home.Model))
				if err != nil {
					return fmt.Errorf("serve: restore %s model: %w", name, err)
				}
			}
			mon, err := base.RestoreMonitor(bytes.NewReader(home.State))
			if err != nil {
				return fmt.Errorf("serve: restore %s: %w", name, err)
			}
			if *stream != "" && mon.Observed() > len(streamLog) {
				return fmt.Errorf("serve: %s checkpoint is %d events ahead of the stream file", name, mon.Observed()-len(streamLog))
			}
			offset[name] = mon.Observed()
			if err := h.RegisterMonitor(name, mon, opts); err != nil {
				return err
			}
			continue
		}
		if err := h.Register(name, sys, opts); err != nil {
			return err
		}
	}

	// -listen: bind the listener before the stats ticker starts so its
	// counters appear in the JSON lines from the first tick.
	var ws *causaliot.WireServer
	var ln net.Listener
	if *listen != "" {
		ws, err = causaliot.NewWireServer(h, causaliot.WireConfig{Token: *authToken})
		if err != nil {
			return err
		}
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		if tlsServer != nil {
			ln = tls.NewListener(ln, tlsServer)
		}
		if listenReady != nil {
			listenReady(ln.Addr())
		}
		tlsNote := ""
		if tlsServer != nil {
			tlsNote = ", TLS"
		}
		if *clusterList != "" {
			fmt.Printf("listening on %s (%d homes, %d worker shards, %s policy%s)\n",
				ln.Addr(), *tenants, len(strings.Split(*clusterList, ",")), *policyName, tlsNote)
		} else {
			fmt.Printf("listening on %s (%d homes, %d shards, %s policy%s)\n", ln.Addr(), *tenants, *shards, *policyName, tlsNote)
		}
	}

	// -stats-interval: one machine-readable line per tick on stderr, so a
	// long-lived serve can be watched (or scraped) without disturbing the
	// human-readable report on stdout. Fleet fan-in and wire counters ride
	// along when present — AlarmsDropped > 0 in the fleet block is the
	// operator's signal that alarms are being lost to a slow consumer.
	statsDone := make(chan struct{})
	var statsWG sync.WaitGroup
	if *statsInterval > 0 {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			enc := json.NewEncoder(os.Stderr)
			tick := time.NewTicker(*statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-statsDone:
					return
				case now := <-tick.C:
					line := struct {
						Time      time.Time                           `json:"time"`
						Stats     causaliot.HubStats                  `json:"stats"`
						Fleet     *causaliot.FleetStats               `json:"fleet,omitempty"`
						Wire      *causaliot.WireStats                `json:"wire,omitempty"`
						Lifecycle map[string]causaliot.LifecycleStats `json:"lifecycle,omitempty"`
					}{Time: now, Stats: h.Stats()}
					if f, ok := h.(*causaliot.Fleet); ok {
						fst := f.FleetStats()
						line.Fleet = &fst
					}
					if ws != nil {
						wst := ws.Stats()
						line.Wire = &wst
					}
					if *adapt {
						line.Lifecycle = h.LifecycleStats()
					}
					_ = enc.Encode(line)
				}
			}
		}()
	}

	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		for ta := range h.Alarms() {
			if *verbose {
				kind := "contextual"
				if ta.Alarm.Collective() {
					kind = "collective"
				}
				fmt.Printf("[%s] ALARM (%s, %d events, score %.4f)\n", ta.Tenant, kind, len(ta.Alarm.Events), ta.Score)
			}
		}
	}()

	start := time.Now()
	errs := make(chan error, *tenants+1)
	interrupted := false
	if *listen != "" {
		// Network mode: producers push events over TCP until a signal stops
		// the process or the listener fails. Closing the server first drops
		// every connection and restores default alarm delivery before the
		// host itself shuts down.
		serveDone := make(chan error, 1)
		go func() { serveDone <- ws.Serve(ln) }()
		var serveErr error
		select {
		case <-stop:
			interrupted = true
			if err := ws.Close(); err != nil {
				errs <- err
			}
			serveErr = <-serveDone
		case serveErr = <-serveDone:
			if err := ws.Close(); err != nil {
				errs <- err
			}
		}
		if serveErr != nil {
			errs <- fmt.Errorf("listener: %w", serveErr)
		}
	} else {
		var producers sync.WaitGroup
		for _, name := range names {
			producers.Add(1)
			go func(name string) {
				defer producers.Done()
				for _, e := range streamLog[offset[name]:] {
					select {
					case <-stop:
						return
					default:
					}
					err := h.Submit(name, e)
					if errors.Is(err, causaliot.ErrBackpressure) {
						continue // reject policy: shed and move on
					}
					if err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
						return
					}
				}
			}(name)
		}
		producers.Wait()
		select {
		case <-stop:
			interrupted = true
		default:
		}
	}
	// Flushing reports (and consumes) each home's partially tracked anomaly
	// chain — right at the end of a completed run, but not on an interrupt,
	// where the chain must survive into the checkpoint for the resumed
	// process to finish tracking it.
	if !interrupted {
		for _, name := range names {
			if err := h.Flush(name); err != nil {
				return err
			}
		}
	}
	if *checkpointPath != "" {
		// Let the queues drain so the checkpoint covers every accepted
		// event; anything still queued after the grace period is simply
		// replayed by the next -resume run.
		drainDeadline := time.Now().Add(30 * time.Second)
		for h.Stats().Total.QueueDepth > 0 && time.Now().Before(drainDeadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if err := writeServeCheckpoint(h, names, *checkpointPath, *adapt); err != nil {
			return err
		}
		fmt.Printf("checkpointed %d homes to %s\n", len(names), *checkpointPath)
	}
	var lifecycle map[string]causaliot.LifecycleStats
	if *adapt {
		lifecycle = h.LifecycleStats()
	}
	var fleetStats *causaliot.FleetStats
	if f, ok := h.(*causaliot.Fleet); ok {
		fst := f.FleetStats()
		fleetStats = &fst
	}
	if err := h.Close(); err != nil {
		return err
	}
	close(statsDone)
	statsWG.Wait()
	consumed.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	s := h.Stats()
	if *listen != "" {
		wst := ws.Stats()
		fmt.Printf("served %d homes over the wire on %d workers (%s policy) in %v\n",
			*tenants, s.Workers, *policyName, elapsed.Round(time.Millisecond))
		fmt.Printf("wire: %d conns (%d total), %d events, %d nacks, %d alarms pushed, %d alarm drops, %d auth failures\n",
			wst.ActiveConns, wst.Conns, wst.Events, wst.Nacks, wst.Alarms, wst.AlarmsDropped, wst.AuthFailures)
		// accepted == admitted (events) + duplicates: every frame a resumed
		// producer replays is decided exactly once.
		fmt.Printf("wire sessions: %d live, %d resumes, %d retransmits, %d duplicates dropped, %d idle evictions, %d alarms banked, %d replayed\n",
			wst.Sessions, wst.Resumes, wst.Retransmits, wst.Duplicates, wst.EvictedIdle, wst.AlarmsBuffered, wst.AlarmReplays)
	} else {
		fmt.Printf("served %d homes × %d events on %d workers (%s policy) in %v\n",
			*tenants, len(streamLog), s.Workers, *policyName, elapsed.Round(time.Millisecond))
	}
	if fleetStats != nil && fleetStats.AlarmsDropped > 0 {
		fmt.Printf("fleet fan-in dropped %d alarms (Alarms() consumer too slow)\n", fleetStats.AlarmsDropped)
	}
	if fleetStats != nil {
		for _, ss := range fleetStats.Shards {
			sh := ss.Health
			if !sh.Remote {
				continue
			}
			fmt.Printf("shard %d %s: link %s, %d reconnects, %d resumes, %d retransmits, %d pending, envelope bytes out/in %d/%d\n",
				ss.Shard, sh.Addr, sh.Link, sh.Reconnects, sh.Resumes, sh.Retransmits, sh.PendingEvents, sh.EnvelopeBytesOut, sh.EnvelopeBytesIn)
		}
	}
	fmt.Printf("throughput: %.0f events/sec\n", float64(s.Total.Processed)/elapsed.Seconds())
	fmt.Printf("%-10s %10s %10s %8s %8s %8s %8s %12s %12s\n",
		"home", "ingested", "processed", "alarms", "dropped", "rejected", "errors", "p50", "p99")
	for _, ts := range s.Tenants {
		fmt.Printf("%-10s %10d %10d %8d %8d %8d %8d %12v %12v\n",
			ts.Tenant, ts.Ingested, ts.Processed, ts.Alarms, ts.Dropped, ts.Rejected, ts.Errors, ts.P50, ts.P99)
	}
	t := s.Total
	fmt.Printf("%-10s %10d %10d %8d %8d %8d %8d %12v %12v\n",
		"total", t.Ingested, t.Processed, t.Alarms, t.Dropped, t.Rejected, t.Errors, t.P50, t.P99)
	if *adapt {
		fmt.Printf("%-10s %10s %10s %8s %8s %8s %8s\n",
			"home", "folded", "scans", "drift", "refits", "remines", "swaps")
		for _, name := range names {
			lc, ok := lifecycle[name]
			if !ok {
				continue
			}
			fmt.Printf("%-10s %10d %10d %8d %8d %8d %8d\n",
				name, lc.Folded, lc.Scans, lc.DriftScans, lc.Refits, lc.Remines, lc.Swaps)
			if lc.LastError != "" {
				fmt.Printf("%-10s   last refresh error: %s\n", name, lc.LastError)
			}
		}
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	train := fs.String("train", "", "training event CSV")
	stream := fs.String("stream", "", "runtime event CSV to validate")
	testbed := fs.String("testbed", "contextact", "device inventory to assume")
	tau := fs.Int("tau", 0, "maximum time lag (0 = automatic)")
	kmax := fs.Int("kmax", 1, "maximum anomaly chain length")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *train == "" || *stream == "" {
		return fmt.Errorf("detect: -train and -stream are required")
	}
	if *tau < 0 {
		return fmt.Errorf("detect: -tau %d < 0", *tau)
	}
	if *kmax < 1 {
		return fmt.Errorf("detect: -kmax %d < 1", *kmax)
	}
	tb, err := pickTestbed(*testbed)
	if err != nil {
		return err
	}
	devices, err := publicDevices(tb)
	if err != nil {
		return err
	}
	trainLog, err := loadEvents(*train)
	if err != nil {
		return err
	}
	sys, err := causaliot.Train(devices, trainLog, causaliot.Config{Tau: *tau, KMax: *kmax})
	if err != nil {
		return err
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		return err
	}
	streamLog, err := loadEvents(*stream)
	if err != nil {
		return err
	}
	alarms := 0
	report := func(alarm *causaliot.Alarm) {
		if alarm == nil {
			return
		}
		alarms++
		kind := "contextual"
		if alarm.Collective() {
			kind = "collective"
		}
		fmt.Printf("ALARM %d (%s, %d events, abrupt=%v):\n", alarms, kind, len(alarm.Events), alarm.Abrupt)
		for _, ev := range alarm.Events {
			fmt.Printf("  %s=%d score=%.4f context=%v\n", ev.Device, ev.State, ev.Score, ev.Context)
		}
	}
	for _, e := range streamLog {
		det, err := mon.ObserveEvent(e)
		if err != nil {
			return err
		}
		report(det.Alarm)
	}
	report(mon.Flush())
	fmt.Printf("processed %d events, %d alarms (threshold %.4f, kmax %d)\n", len(streamLog), alarms, sys.Threshold(), *kmax)
	return nil
}
