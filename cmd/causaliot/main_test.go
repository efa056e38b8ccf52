package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	cryptorand "crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"errors"
	"io"
	"math/big"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/causaliot/causaliot/internal/wire"
)

func TestRunUsageAndErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
	if err := run([]string{"mine"}); err == nil {
		t.Error("mine without -in accepted")
	}
	if err := run([]string{"detect"}); err == nil {
		t.Error("detect without files accepted")
	}
	if err := run([]string{"serve"}); err == nil {
		t.Error("serve without files accepted")
	}
	if err := run([]string{"serve", "-train", "x", "-stream", "y", "-policy", "bogus"}); err == nil {
		t.Error("unknown backpressure policy accepted")
	}
	if err := run([]string{"serve", "-train", "x", "-stream", "y", "-tenants", "0"}); err == nil {
		t.Error("zero tenants accepted")
	}
	if err := run([]string{"simulate", "-testbed", "bogus"}); err == nil {
		t.Error("unknown testbed accepted")
	}
}

func TestSimulateMineDetectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	dot := filepath.Join(dir, "dig.dot")

	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := run([]string{"simulate", "-days", "1", "-seed", "4", "-out", stream}); err != nil {
		t.Fatalf("simulate stream: %v", err)
	}
	if err := run([]string{"mine", "-in", train, "-tau", "2", "-graph", dot}); err != nil {
		t.Fatalf("mine: %v", err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty DOT export")
	}
	if err := run([]string{"detect", "-train", train, "-stream", stream, "-tau", "2", "-kmax", "2"}); err != nil {
		t.Fatalf("detect: %v", err)
	}
	if err := run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2", "-kmax", "2",
		"-tenants", "3", "-workers", "2", "-queue", "64", "-policy", "block"}); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestLoadEventsErrors(t *testing.T) {
	if _, err := loadEvents("/does/not/exist.csv"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEvents(bad); err == nil {
		t.Error("malformed CSV accepted")
	}
}

func TestPublicDevicesCoversInventory(t *testing.T) {
	for _, name := range []string{"contextact", "casas"} {
		tb, err := pickTestbed(name)
		if err != nil {
			t.Fatal(err)
		}
		devices, err := publicDevices(tb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(devices) != len(tb.Devices) {
			t.Errorf("%s: %d public devices for %d internal", name, len(devices), len(tb.Devices))
		}
	}
}

// prefixCSV writes the first n event rows (plus header) of src to a new
// file, simulating the part of the stream a killed process got through.
func prefixCSV(t *testing.T, src string, n int) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < n+1 {
		t.Fatalf("stream has %d lines, need %d", len(lines), n+1)
	}
	out := filepath.Join(t.TempDir(), "prefix.csv")
	if err := os.WriteFile(out, []byte(strings.Join(lines[:n+1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// readObserved parses a serve checkpoint file and returns each home's
// recorded stream position.
func readObserved(t *testing.T, path string) map[string]int {
	t.Helper()
	cp, err := readServeCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(cp.Homes))
	for name, home := range cp.Homes {
		var env struct {
			Observed int `json:"observed"`
		}
		if err := json.Unmarshal(home.State, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = env.Observed
	}
	return out
}

// TestServeCheckpointResume drives the crash-recovery flow end to end from
// the CLI: a first serve life processes a prefix of the stream and
// checkpoints, a second life resumes from the file and finishes — and the
// final checkpoint shows every home at the end of the full stream.
func TestServeCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	cp := filepath.Join(dir, "serve.ckpt")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := run([]string{"simulate", "-days", "1", "-seed", "4", "-out", stream}); err != nil {
		t.Fatalf("simulate stream: %v", err)
	}
	full, err := loadEvents(stream)
	if err != nil {
		t.Fatal(err)
	}
	kill := len(full) / 3
	prefix := prefixCSV(t, stream, kill)

	// First life: serve the prefix, checkpoint at the end.
	if err := run([]string{"serve", "-train", train, "-stream", prefix, "-tau", "2", "-kmax", "2",
		"-tenants", "2", "-workers", "2", "-checkpoint", cp}); err != nil {
		t.Fatalf("first life: %v", err)
	}
	for name, obs := range readObserved(t, cp) {
		if obs != kill {
			t.Fatalf("%s checkpointed at %d, want %d", name, obs, kill)
		}
	}

	// Second life: resume against the full stream; only the tail replays.
	if err := run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2", "-kmax", "2",
		"-tenants", "2", "-workers", "2", "-checkpoint", cp, "-resume"}); err != nil {
		t.Fatalf("second life: %v", err)
	}
	for name, obs := range readObserved(t, cp) {
		if obs != len(full) {
			t.Fatalf("%s finished at %d, want %d", name, obs, len(full))
		}
	}
}

func TestServeCheckpointFlagValidation(t *testing.T) {
	if err := run([]string{"serve", "-train", "x", "-stream", "y", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	if err := run([]string{"simulate", "-days", "1", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-days", "1", "-seed", "4", "-out", stream}); err != nil {
		t.Fatal(err)
	}
	// Resume from a missing checkpoint file is a loud error, not a silent
	// fresh start.
	if err := run([]string{"serve", "-train", train, "-stream", stream,
		"-checkpoint", filepath.Join(dir, "nope.ckpt"), "-resume"}); err == nil {
		t.Error("missing checkpoint file accepted")
	}
	// And a corrupt one is rejected too.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"serve", "-train", train, "-stream", stream,
		"-checkpoint", bad, "-resume"}); err == nil {
		t.Error("corrupt checkpoint file accepted")
	}
}

// TestServeSIGTERMCheckpoint exercises the signal path: a SIGTERM mid-serve
// stops intake, the final checkpoint is written, and a resumed run picks up
// from wherever the first life stopped.
func TestServeSIGTERMCheckpoint(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	cp := filepath.Join(dir, "serve.ckpt")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-days", "7", "-seed", "4", "-out", stream}); err != nil {
		t.Fatal(err)
	}
	full, err := loadEvents(stream)
	if err != nil {
		t.Fatal(err)
	}
	// signal.Notify is additive, so this guard channel keeps a SIGTERM that
	// lands after serve already finished (and uninstalled its own handler)
	// from killing the whole test binary with the default action.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2",
			"-tenants", "2", "-workers", "1", "-queue", "16", "-checkpoint", cp})
	}()
	time.Sleep(150 * time.Millisecond) // let serve install its handler and start streaming
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	// Whether the signal landed mid-stream or after completion, the
	// checkpoint file must exist and resume must finish the stream.
	observed := readObserved(t, cp)
	if len(observed) != 2 {
		t.Fatalf("checkpoint covers %d homes, want 2", len(observed))
	}
	if err := run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2",
		"-tenants", "2", "-workers", "2", "-checkpoint", cp, "-resume"}); err != nil {
		t.Fatalf("resume after SIGTERM: %v", err)
	}
	for name, obs := range readObserved(t, cp) {
		if obs != len(full) {
			t.Fatalf("%s finished at %d, want %d", name, obs, len(full))
		}
	}
}

// TestReadServeCheckpointV1Compat: state-only version-1 files written by
// older builds still load, mapping each home's raw envelope to State.
func TestReadServeCheckpointV1Compat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.ckpt")
	v1 := `{"version":1,"homes":{"home-0":{"observed":7},"home-1":{"observed":9}}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := readServeCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Homes) != 2 {
		t.Fatalf("parsed %d homes", len(cp.Homes))
	}
	for name, home := range cp.Homes {
		if len(home.Model) != 0 {
			t.Errorf("%s: v1 entry grew a model", name)
		}
		var env struct {
			Observed int `json:"observed"`
		}
		if err := json.Unmarshal(home.State, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if env.Observed == 0 {
			t.Errorf("%s: observed position lost", name)
		}
	}
	if err := os.WriteFile(path, []byte(`{"version":3,"homes":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readServeCheckpoint(path); err == nil {
		t.Error("future version accepted")
	}
}

// TestServeAdaptiveCheckpointResume runs the lifecycle flags end to end: an
// adaptive first life checkpoints model+state per home, and a resumed life
// loads the embedded model rather than retraining blind.
func TestServeAdaptiveCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	cp := filepath.Join(dir, "serve.ckpt")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if err := run([]string{"simulate", "-days", "1", "-seed", "4", "-out", stream}); err != nil {
		t.Fatalf("simulate stream: %v", err)
	}
	full, err := loadEvents(stream)
	if err != nil {
		t.Fatal(err)
	}
	kill := len(full) / 2
	prefix := prefixCSV(t, stream, kill)

	if err := run([]string{"serve", "-train", train, "-stream", prefix, "-tau", "2", "-kmax", "2",
		"-tenants", "2", "-workers", "2", "-adapt", "-scan-every", "50", "-refit-window", "512",
		"-checkpoint", cp}); err != nil {
		t.Fatalf("adaptive first life: %v", err)
	}
	parsed, err := readServeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	for name, home := range parsed.Homes {
		if len(home.Model) == 0 {
			t.Fatalf("%s: adaptive checkpoint is missing the served model", name)
		}
		if !strings.Contains(string(home.State), `"lifecycle"`) {
			t.Fatalf("%s: adaptive checkpoint is missing the lifecycle block", name)
		}
	}
	for name, obs := range readObserved(t, cp) {
		if obs != kill {
			t.Fatalf("%s checkpointed at %d, want %d", name, obs, kill)
		}
	}

	if err := run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2", "-kmax", "2",
		"-tenants", "2", "-workers", "2", "-adapt", "-scan-every", "50", "-refit-window", "512",
		"-checkpoint", cp, "-resume"}); err != nil {
		t.Fatalf("adaptive second life: %v", err)
	}
	for name, obs := range readObserved(t, cp) {
		if obs != len(full) {
			t.Fatalf("%s finished at %d, want %d", name, obs, len(full))
		}
	}
}

// TestServeStatsInterval captures the periodic stats emitter: every tick
// must be one valid JSON object on stderr carrying hub totals.
func TestServeStatsInterval(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-days", "4", "-seed", "4", "-out", stream}); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// Drain the pipe while serve runs: the emitter writes every tick, and
	// an unread pipe would fill and deadlock the stats goroutine.
	type capture struct {
		data []byte
		err  error
	}
	capc := make(chan capture, 1)
	go func() {
		data, err := io.ReadAll(r)
		capc <- capture{data, err}
	}()
	old := os.Stderr
	os.Stderr = w
	serveErr := run([]string{"serve", "-train", train, "-stream", stream, "-tau", "2",
		"-tenants", "2", "-workers", "2", "-adapt", "-stats-interval", "1ms"})
	os.Stderr = old
	w.Close()
	cap := <-capc
	r.Close()
	if cap.err != nil {
		t.Fatal(cap.err)
	}
	captured := cap.data
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(captured)), "\n") {
		if line == "" {
			continue
		}
		var tick struct {
			Time  time.Time `json:"time"`
			Stats struct {
				Total struct {
					Ingested uint64 `json:"Ingested"`
				}
			} `json:"stats"`
		}
		if err := json.Unmarshal([]byte(line), &tick); err != nil {
			t.Fatalf("stats line is not JSON: %q: %v", line, err)
		}
		if tick.Time.IsZero() {
			t.Fatalf("stats line missing timestamp: %q", line)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no stats lines emitted")
	}
}

// TestServeFlagValidationAudit sweeps every subcommand's flag validation:
// each row is a nonsense invocation that must be refused before any file is
// touched, with the offending flag named in the error.
func TestServeFlagValidationAudit(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"simulate", "-days", "0"}, "-days"},
		{[]string{"mine", "-in", "x", "-tau", "-1"}, "-tau"},
		{[]string{"detect", "-train", "x", "-stream", "y", "-tau", "-1"}, "-tau"},
		{[]string{"detect", "-train", "x", "-stream", "y", "-kmax", "0"}, "-kmax"},
		{[]string{"serve", "-train", "x"}, "-stream or -listen"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-listen", ":0"}, "mutually exclusive"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-auth-token", "s"}, "-auth-token"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-shards", "0"}, "-shards"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-tau", "-1"}, "-tau"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-kmax", "0"}, "-kmax"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-workers", "-1"}, "-workers"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-queue", "0"}, "-queue"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-stats-interval", "-1s"}, "-stats-interval"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-drift-q", "0.5"}, "without -adapt"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-refit-window", "9"}, "without -adapt"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-scan-every", "9"}, "without -adapt"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-adapt", "-drift-q", "1.5"}, "-drift-q"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-adapt", "-drift-q", "0"}, "-drift-q"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-adapt", "-refit-window", "0"}, "-refit-window"},
		{[]string{"serve", "-train", "x", "-stream", "y", "-adapt", "-scan-every", "0"}, "-scan-every"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestServeListenWireE2E boots serve -listen on a loopback port and speaks
// the wire protocol to it: a bad token is refused, a good producer streams
// real events, an unknown device comes back as a NACK echoing the event's
// sequence number, and SIGTERM shuts the whole thing down cleanly.
func TestServeListenWireE2E(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	events, err := loadEvents(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) > 50 {
		events = events[:50]
	}

	// Keep a post-serve SIGTERM from killing the test binary (see
	// TestServeSIGTERMCheckpoint).
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	addrc := make(chan net.Addr, 1)
	listenReady = func(a net.Addr) { addrc <- a }
	defer func() { listenReady = nil }()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-train", train, "-tau", "2",
			"-listen", "127.0.0.1:0", "-auth-token", "tok", "-tenants", "2", "-workers", "1"})
	}()
	var addr string
	select {
	case a := <-addrc:
		addr = a.String()
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("serve never started listening")
	}

	// Handshake refusals travel as Nack frames: a bad token and an unknown
	// home are both turned away before any event flows.
	open := func(cfg wire.ClientConfig) (*wire.SessionClient, error) {
		return wire.OpenSession(wire.SessionConfig{Addr: addr, Session: "e2e", Client: cfg})
	}
	if _, err := open(wire.ClientConfig{Token: "bad", Tenant: "home-0"}); !errors.Is(err, wire.ErrBadAuth) {
		t.Fatalf("bad token error = %v", err)
	}
	if _, err := open(wire.ClientConfig{Token: "tok", Tenant: "home-99"}); err == nil ||
		!strings.Contains(err.Error(), "unknown-tenant") {
		t.Fatalf("unknown tenant error = %v", err)
	}
	nacks := make(chan wire.Nack, 8)
	c, err := open(wire.ClientConfig{Token: "tok", Tenant: "home-0",
		OnNack: func(n wire.Nack) { nacks <- n }})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		wev := wire.Event{Seq: uint64(i + 1), Time: ev.Time, Device: ev.Device, Value: ev.Value}
		if err := c.Send(wev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-nacks:
		t.Fatalf("valid events were nacked: %+v", n)
	default:
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// writeSelfSignedCert generates a throwaway TLS key pair valid for
// 127.0.0.1, writes it as PEM files, and returns the paths plus a pool
// trusting it.
func writeSelfSignedCert(t *testing.T, dir string) (certPath, keyPath string, pool *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "causaliot-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(cryptorand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "cert.pem")
	keyPath = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	if err := os.WriteFile(certPath, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("pool rejected generated certificate")
	}
	return certPath, keyPath, pool
}

func TestServeClusterFlagValidation(t *testing.T) {
	cases := [][]string{
		{"serve", "-worker"}, // -worker needs -listen
		{"serve", "-worker", "-listen", ":0", "-train", "x"},                        // worker takes no training
		{"serve", "-worker", "-listen", ":0", "-tenants", "2"},                      // nor tenant shaping
		{"serve", "-train", "x", "-stream", "y", "-cluster", "a", "-shards", "2"},   // workers are the shards
		{"serve", "-train", "x", "-stream", "y", "-tls-cert", "c"},                  // cert without key
		{"serve", "-train", "x", "-stream", "y", "-tls-ca", "ca"},                   // ca without -cluster
		{"serve", "-train", "x", "-stream", "y", "-tls-cert", "c", "-tls-key", "k"}, // TLS without -listen
		{"serve", "-train", "x", "-stream", "y", "-cluster", "a", "-adapt"},         // adapt cannot cross processes
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestServeClusterE2E drives the full multi-process shape end to end: two
// serve -worker processes-worth of shard control plane, a serve -cluster
// router training the homes and replaying the stream through them, and a
// checkpoint written back through the remote export path.
func TestServeClusterE2E(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	stream := filepath.Join(dir, "stream.csv")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-days", "1", "-seed", "5", "-out", stream}); err != nil {
		t.Fatal(err)
	}

	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	addrc := make(chan net.Addr, 1)
	listenReady = func(a net.Addr) { addrc <- a }
	defer func() { listenReady = nil }()

	workerDone := make(chan error, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		go func() {
			workerDone <- run([]string{"serve", "-worker", "-listen", "127.0.0.1:0",
				"-auth-token", "tok", "-workers", "1", "-queue", "256"})
		}()
		select {
		case a := <-addrc:
			addrs = append(addrs, a.String())
		case err := <-workerDone:
			t.Fatalf("worker exited before listening: %v", err)
		case <-time.After(60 * time.Second):
			t.Fatal("worker never started listening")
		}
	}

	ckpt := filepath.Join(dir, "cluster.ckpt")
	err := run([]string{"serve", "-train", train, "-tau", "2", "-stream", stream,
		"-cluster", strings.Join(addrs, ","), "-auth-token", "tok",
		"-tenants", "3", "-queue", "256", "-checkpoint", ckpt})
	if err != nil {
		t.Fatalf("cluster router: %v", err)
	}
	restored, err := readServeCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("reading cluster checkpoint: %v", err)
	}
	if len(restored.Homes) != 3 {
		t.Fatalf("cluster checkpoint has %d homes, want 3", len(restored.Homes))
	}
	for name, home := range restored.Homes {
		if len(home.State) == 0 {
			t.Fatalf("home %s checkpointed without state", name)
		}
	}

	// One SIGTERM stops both workers (each run registered the signal).
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerDone:
			if err != nil {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker did not exit after SIGTERM")
		}
	}

	// A router against a dead worker address fails loudly.
	if err := run([]string{"serve", "-train", train, "-tau", "2", "-stream", stream,
		"-cluster", addrs[0], "-auth-token", "tok", "-tenants", "1"}); err == nil {
		t.Fatal("router attached to a dead worker")
	}
}

// TestServeListenTLSE2E wraps the wire listener in TLS from a self-signed
// pair and proves both the plain client and the fault-tolerant session
// client dial it with a tls.Config — and that a client without the CA is
// turned away during the handshake.
func TestServeListenTLSE2E(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.csv")
	if err := run([]string{"simulate", "-days", "2", "-seed", "3", "-out", train}); err != nil {
		t.Fatal(err)
	}
	events, err := loadEvents(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) > 30 {
		events = events[:30]
	}
	certPath, keyPath, pool := writeSelfSignedCert(t, dir)

	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	addrc := make(chan net.Addr, 1)
	listenReady = func(a net.Addr) { addrc <- a }
	defer func() { listenReady = nil }()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-train", train, "-tau", "2",
			"-listen", "127.0.0.1:0", "-auth-token", "tok", "-tenants", "1", "-workers", "1",
			"-tls-cert", certPath, "-tls-key", keyPath})
	}()
	var addr string
	select {
	case a := <-addrc:
		addr = a.String()
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("serve never started listening")
	}

	tlsCfg := &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
	// Without the CA the handshake is refused before any wire frame flows.
	open := func(name string, cfg wire.ClientConfig) (*wire.SessionClient, error) {
		return wire.OpenSession(wire.SessionConfig{Addr: addr, Session: name, Client: cfg})
	}
	if _, err := open("tls-no-ca", wire.ClientConfig{Token: "tok", Tenant: "home-0",
		TLS: &tls.Config{MinVersion: tls.VersionTLS12}, DialTimeout: 5 * time.Second}); err == nil {
		t.Fatal("dial without the CA succeeded")
	}
	c, err := open("tls-first", wire.ClientConfig{Token: "tok", Tenant: "home-0", TLS: tlsCfg})
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for i, ev := range events[:half] {
		if err := c.Send(wire.Event{Seq: uint64(i + 1), Time: ev.Time, Device: ev.Device, Value: ev.Value}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The session client inherits the same tls.Config on every (re)connect.
	sc, err := open("tls-session", wire.ClientConfig{Token: "tok", Tenant: "home-0", TLS: tlsCfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events[half:] {
		if err := sc.Send(wire.Event{Seq: uint64(half + i + 1), Time: ev.Time, Device: ev.Device, Value: ev.Value}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}
