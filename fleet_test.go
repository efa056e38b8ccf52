package causaliot

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainFleet polls until the fleet has processed want events or the
// deadline passes.
func drainFleet(t *testing.T, f *Fleet, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.Stats().Total.Processed < want {
		if time.Now().After(deadline) {
			t.Fatalf("fleet stalled at %d/%d processed", f.Stats().Total.Processed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetServesLikeHub is the drop-in contract: the same homes fed the
// same events through a 3-shard Fleet and a single Hub produce identical
// per-home alarm sequences and identical counters.
func TestFleetServesLikeHub(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	const homes = 6
	seq := ghostSequence()

	type capture struct {
		mu     sync.Mutex
		alarms map[string][]*Alarm
	}
	serve := func(host Host) (map[string][]*Alarm, HubStats) {
		c := capture{alarms: make(map[string][]*Alarm)}
		for i := 0; i < homes; i++ {
			err := host.Register(fmt.Sprintf("home-%d", i), sys, TenantOptions{
				OnAlarm: func(tenant string, a *Alarm, _ float64) {
					c.mu.Lock()
					c.alarms[tenant] = append(c.alarms[tenant], a)
					c.mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < homes; i++ {
			for _, ev := range seq {
				if err := host.Submit(fmt.Sprintf("home-%d", i), ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := host.Close(); err != nil {
			t.Fatal(err)
		}
		return c.alarms, host.Stats()
	}

	fleetAlarms, fleetStats := serve(NewFleet(FleetConfig{Shards: 3, Hub: HubConfig{Workers: 2, QueueSize: 64}}))
	hubAlarms, hubStats := serve(NewHub(HubConfig{Workers: 2, QueueSize: 64}))

	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		fa, ha := fleetAlarms[name], hubAlarms[name]
		if len(fa) != len(ha) {
			t.Fatalf("%s: fleet raised %d alarms, hub %d", name, len(fa), len(ha))
		}
		for j := range fa {
			if fa[j].Explain() != ha[j].Explain() {
				t.Fatalf("%s alarm %d diverges:\nfleet: %s\nhub:   %s", name, j, fa[j].Explain(), ha[j].Explain())
			}
		}
	}
	ft, ht := fleetStats.Total, hubStats.Total
	if ft.Processed != ht.Processed || ft.Alarms != ht.Alarms || ft.Dropped != 0 || ft.Errors != ht.Errors {
		t.Fatalf("fleet total %+v != hub total %+v", ft, ht)
	}
	if len(fleetStats.Tenants) != homes {
		t.Fatalf("fleet reports %d tenants", len(fleetStats.Tenants))
	}
	// The three shards actually share the load.
	fs := NewFleet(FleetConfig{Shards: 3})
	defer fs.Close()
	if got := len(fs.Shards()); got != 3 {
		t.Fatalf("shards = %d", got)
	}
}

// TestFleetLiveMigrationZeroLoss migrates a home between shards while
// producers are streaming to it; every submitted event must be processed
// exactly once and the stats counters must survive the moves.
func TestFleetLiveMigrationZeroLoss(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 2, QueueSize: 256}})
	if err := f.Register("home", sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
		t.Fatal(err)
	}
	const producers, each = 4, 300
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ts := t0.Add(time.Duration(p) * time.Hour)
			for j := 0; j < each; j++ {
				ts = ts.Add(time.Second)
				if err := f.Submit("home", Event{Time: ts, Device: "light", Value: float64(j % 2)}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(p)
	}
	home, err := f.ShardOf("home")
	if err != nil {
		t.Fatal(err)
	}
	other := 1 - home
	for k := 0; k < 6; k++ {
		target := other
		if k%2 == 1 {
			target = home
		}
		if err := f.Migrate("home", target); err != nil {
			t.Fatalf("migration %d: %v", k, err)
		}
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats().Total
	if s.Processed != producers*each || s.Dropped != 0 {
		t.Fatalf("migrations lost events: %+v", s)
	}
	fst := f.FleetStats()
	if fst.Migrations != 6 {
		t.Fatalf("migrations = %d, want 6", fst.Migrations)
	}
	if fst.GapDropped != 0 {
		t.Fatalf("gap dropped %d events under Block policy", fst.GapDropped)
	}
}

// TestFleetMigrationPreservesState proves the handoff moves the exact
// runtime state: a quiesced home's exported checkpoint is byte-identical
// before and after a migration, and detection resumes mid-chain.
func TestFleetMigrationPreservesState(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 3})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1}})
	defer f.Close()
	if err := f.Register("home", sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
		t.Fatal(err)
	}
	seq := ghostSequence()
	for _, ev := range seq[:3] {
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	drainFleet(t, f, 3)

	var before, beforeModel bytes.Buffer
	if err := f.Export("home", ExportOptions{Model: &beforeModel, State: &before}); err != nil {
		t.Fatal(err)
	}
	from, err := f.ShardOf("home")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate("home", 1-from); err != nil {
		t.Fatal(err)
	}
	if now, _ := f.ShardOf("home"); now != 1-from {
		t.Fatalf("home still on shard %d", now)
	}
	var after, afterModel bytes.Buffer
	if err := f.Export("home", ExportOptions{Model: &afterModel, State: &after}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("migration changed the checkpoint:\nbefore: %s\nafter:  %s", before.String(), after.String())
	}
	if !bytes.Equal(beforeModel.Bytes(), afterModel.Bytes()) {
		t.Fatal("migration changed the serialized model")
	}
	// The home still serves on the new shard.
	for _, ev := range seq[3:] {
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	drainFleet(t, f, uint64(len(seq)))
}

// TestFleetRebalance grows and shrinks the fleet under registered load:
// AddShard moves ~1/N of the homes onto the new shard, RemoveShard moves
// them off, and nothing is lost either way.
func TestFleetRebalance(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 2, QueueSize: 64}})
	const homes = 16
	for i := 0; i < homes; i++ {
		if err := f.Register(fmt.Sprintf("home-%d", i), sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
			t.Fatal(err)
		}
	}
	submitAll := func() {
		for i := 0; i < homes; i++ {
			for _, ev := range ghostSequence() {
				if err := f.Submit(fmt.Sprintf("home-%d", i), ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	perRound := uint64(homes * len(ghostSequence()))
	submitAll()
	drainFleet(t, f, perRound)

	id, err := f.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Shards()); got != 3 {
		t.Fatalf("shards after add = %d", got)
	}
	moved := 0
	for i := 0; i < homes; i++ {
		if s, _ := f.ShardOf(fmt.Sprintf("home-%d", i)); s == id {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no home moved to the new shard")
	}
	submitAll()
	drainFleet(t, f, 2*perRound)

	if err := f.RemoveShard(id); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Shards()); got != 2 {
		t.Fatalf("shards after remove = %d", got)
	}
	for i := 0; i < homes; i++ {
		if s, _ := f.ShardOf(fmt.Sprintf("home-%d", i)); s == id {
			t.Fatalf("home-%d still on removed shard", i)
		}
	}
	submitAll()
	drainFleet(t, f, 3*perRound)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats().Total
	if s.Processed != 3*perRound || s.Dropped != 0 {
		t.Fatalf("rebalance lost events: %+v", s)
	}
}

// TestFleetSentinelRoundTrips audits the facade error surface: every
// documented sentinel must round-trip errors.Is-matchable through the
// Fleet facade, with no internal/hub or internal/fleet identity leaking.
func TestFleetSentinelRoundTrips(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1, QueueSize: 4}})

	if err := f.Submit("nobody", Event{}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant submit = %v", err)
	}
	if _, err := f.ShardOf("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant shardOf = %v", err)
	}
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("home", sys, TenantOptions{}); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate register = %v", err)
	}
	if err := f.Migrate("home", 99); !errors.Is(err, ErrUnknownShard) {
		t.Errorf("migrate to unknown shard = %v", err)
	}
	if err := f.RemoveShard(99); !errors.Is(err, ErrUnknownShard) {
		t.Errorf("remove unknown shard = %v", err)
	}
	if err := f.RemoveShard(f.Shards()[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveShard(f.Shards()[0]); !errors.Is(err, ErrLastShard) {
		t.Errorf("remove last shard = %v", err)
	}

	// Backpressure: a wedged home with a Reject queue of 4 fills up and
	// refuses the next submission with the exported sentinel.
	release := make(chan struct{})
	err := f.Deregister("home")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deregister("home"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("double deregister = %v", err)
	}
	if err := f.Register("wedged", sys, TenantOptions{
		Backpressure: BackpressureReject,
		OnError:      func(string, Event, error) { <-release },
	}); err != nil {
		t.Fatal(err)
	}
	// The first dequeued event wedges the worker; the rest fill the queue
	// until Submit reports backpressure.
	var bp error
	deadline := time.Now().Add(5 * time.Second)
	for bp == nil && time.Now().Before(deadline) {
		bp = f.Submit("wedged", Event{Time: t0, Device: "intruder", Value: 1})
	}
	if !errors.Is(bp, ErrBackpressure) {
		t.Errorf("full reject queue = %v", bp)
	}
	close(release)

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit("wedged", Event{}); !errors.Is(err, ErrHubClosed) {
		t.Errorf("submit after close = %v", err)
	}
	if err := f.Migrate("wedged", 0); !errors.Is(err, ErrHubClosed) {
		t.Errorf("migrate after close = %v", err)
	}
	if _, err := f.AddShard(); !errors.Is(err, ErrHubClosed) {
		t.Errorf("addShard after close = %v", err)
	}
}

// TestHubProcessorPanicSentinel: a panicking alarm callback surfaces
// through OnError as the exported ErrProcessorPanic sentinel.
func TestHubProcessorPanicSentinel(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	got := make(chan error, 16)
	h := NewHub(HubConfig{Workers: 1})
	defer h.Close()
	err := h.Register("home", sys, TenantOptions{
		OnAlarm: func(string, *Alarm, float64) { panic("alarm handler bug") },
		OnError: func(_ string, _ Event, err error) {
			select {
			case got <- err:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ghostSequence() {
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-got:
			if errors.Is(err, ErrProcessorPanic) {
				return
			}
		case <-deadline:
			t.Fatal("panic never surfaced through OnError as ErrProcessorPanic")
		}
	}
}

// TestRegisterValidationParity pins Register and RegisterMonitor to the
// same TenantOptions validation on both hosts: an options set rejected by
// one path must be rejected identically by the other.
func TestRegisterValidationParity(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	badAdapt := &AdaptConfig{DriftAlpha: 42} // significance level must be in (0, 1)

	hosts := map[string]func() Host{
		"hub":   func() Host { return NewHub(HubConfig{Workers: 1}) },
		"fleet": func() Host { return NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1}}) },
	}
	for name, mk := range hosts {
		t.Run(name, func(t *testing.T) {
			host := mk()
			defer host.Close()

			// Invalid adaptive config: both paths reject with the same error.
			errReg := host.Register("a", sys, TenantOptions{Adapt: badAdapt})
			mon, err := sys.NewMonitor()
			if err != nil {
				t.Fatal(err)
			}
			errRegMon := host.RegisterMonitor("a", mon, TenantOptions{Adapt: badAdapt})
			if errReg == nil || errRegMon == nil {
				t.Fatalf("invalid AdaptConfig accepted: Register=%v RegisterMonitor=%v", errReg, errRegMon)
			}
			if errReg.Error() != errRegMon.Error() {
				t.Fatalf("validation diverges:\nRegister:        %v\nRegisterMonitor: %v", errReg, errRegMon)
			}
			// The failed registrations left nothing behind.
			if err := host.Submit("a", Event{}); !errors.Is(err, ErrUnknownTenant) {
				t.Fatalf("tenant leaked from failed registration: %v", err)
			}

			// Nil model/monitor: both paths refuse with matching wording.
			if err := host.Register("b", nil, TenantOptions{}); err == nil || !strings.Contains(err.Error(), "nil system") {
				t.Fatalf("nil system register = %v", err)
			}
			if err := host.RegisterMonitor("b", nil, TenantOptions{}); err == nil || !strings.Contains(err.Error(), "nil monitor") {
				t.Fatalf("nil monitor register = %v", err)
			}

			// Duplicate names: the same sentinel from either path.
			if err := host.Register("c", sys, TenantOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := host.Register("c", sys, TenantOptions{}); !errors.Is(err, ErrDuplicateTenant) {
				t.Fatalf("duplicate Register = %v", err)
			}
			mon2, err := sys.NewMonitor()
			if err != nil {
				t.Fatal(err)
			}
			if err := host.RegisterMonitor("c", mon2, TenantOptions{}); !errors.Is(err, ErrDuplicateTenant) {
				t.Fatalf("duplicate RegisterMonitor = %v", err)
			}
		})
	}
}

// TestFleetCloseWithinMigrationInFlight wedges a home mid-migration (its
// worker is stuck, so the quiesce can never finish) and closes the fleet:
// CloseWithin must give up at its deadline with ErrDrainTimeout, and the
// drain must complete once the home unwedges.
func TestFleetCloseWithinMigrationInFlight(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 1, QueueSize: 8}})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	if err := f.Register("wedge", sys, TenantOptions{
		OnError: func(string, Event, error) {
			once.Do(func() { close(entered) })
			<-release
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The unknown device errors; the wedged OnError keeps the worker (and
	// the tenant's stream lock) busy forever.
	if err := f.Submit("wedge", Event{Time: t0, Device: "intruder", Value: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	from, err := f.ShardOf("wedge")
	if err != nil {
		t.Fatal(err)
	}
	migrated := make(chan error, 1)
	go func() { migrated <- f.Migrate("wedge", 1-from) }()
	select {
	case err := <-migrated:
		t.Fatalf("migration of a wedged home finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := f.CloseWithin(150 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("CloseWithin = %v, want ErrDrainTimeout", err)
	}
	if err := f.Submit("wedge", Event{}); !errors.Is(err, ErrHubClosed) {
		t.Errorf("submit after abandoned close = %v", err)
	}
	// Unwedge: the suspended migration and the background drain finish.
	close(release)
	select {
	case err := <-migrated:
		if err != nil {
			t.Fatalf("migration after unwedge = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("migration never finished after unwedge")
	}
	// The alarms channel closes once the background drain completes.
	select {
	case _, ok := <-f.Alarms():
		if ok {
			t.Fatal("unexpected alarm delivery")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("alarms channel never closed after drain")
	}
}

// TestHubExportUnified pins the collapsed export API: a combined
// Export{Model, State} writes the same bytes as the two separate exports,
// and a destination-less call is refused.
func TestHubExportUnified(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 1})
	defer h.Close()
	if err := h.Register("home", sys, TenantOptions{OnAlarm: func(string, *Alarm, float64) {}}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ghostSequence()[:3] {
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Total.Processed < 3 {
		if time.Now().After(deadline) {
			t.Fatal("events never processed")
		}
		time.Sleep(time.Millisecond)
	}

	if err := h.Export("home", ExportOptions{}); err == nil {
		t.Error("destination-less export accepted")
	}
	if err := h.Export("nobody", ExportOptions{State: &bytes.Buffer{}}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant export = %v", err)
	}

	var exModel, exState bytes.Buffer
	if err := h.Export("home", ExportOptions{Model: &exModel}); err != nil {
		t.Fatal(err)
	}
	if err := h.Export("home", ExportOptions{State: &exState}); err != nil {
		t.Fatal(err)
	}
	var m2, s2 bytes.Buffer
	if err := h.Export("home", ExportOptions{Model: &m2, State: &s2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2.Bytes(), exModel.Bytes()) {
		t.Error("combined Export's model bytes diverge from the model-only Export")
	}
	if !bytes.Equal(s2.Bytes(), exState.Bytes()) {
		t.Error("combined Export's state bytes diverge from the state-only Export")
	}

	// A model+state pair restores into a monitor that resumes cleanly.
	restoredSys, err := Load(bytes.NewReader(exModel.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoredSys.RestoreMonitor(bytes.NewReader(exState.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAlarmRouteSurvivesMigration: a fleet-level alarm route is a
// property of the home, not of the shard hub serving it — alarms keep
// arriving on the route (with the producer's Seq) after a live migration.
func TestFleetAlarmRouteSurvivesMigration(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 2, Hub: HubConfig{Workers: 2}})
	defer f.Close()
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	routed := make(chan TenantAlarm, 4)
	if err := f.SetAlarmRoute("home", func(ta TenantAlarm) { routed <- ta }); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAlarmRoute("ghost", nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("route for unknown tenant = %v", err)
	}
	from, err := f.ShardOf("home")
	if err != nil {
		t.Fatal(err)
	}
	var to int
	for _, id := range f.Shards() {
		if id != from {
			to = id
		}
	}
	if err := f.Migrate("home", to); err != nil {
		t.Fatal(err)
	}
	for i, ev := range ghostSequence() {
		ev.Seq = uint64(10 + i)
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case ta := <-routed:
		if ta.Tenant != "home" || ta.Alarm == nil || ta.Seq != 14 {
			t.Fatalf("routed alarm = %+v", ta)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("alarm not delivered through the route after migration")
	}
	select {
	case ta := <-f.Alarms():
		t.Fatalf("fan-in channel received %+v despite an active route", ta)
	default:
	}
}

// TestFleetAlarmDropSurfaced pins the fan-in overflow contract: an alarm
// discarded off the full Alarms channel is counted in both Stats and
// FleetStats instead of vanishing.
func TestFleetAlarmDropSurfaced(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := NewFleet(FleetConfig{Shards: 1, Hub: HubConfig{Workers: 2, AlarmBuffer: 1}})
	defer f.Close()
	// Two homes each raise one alarm; nobody consumes the channel, whose
	// buffer holds one — exactly one alarm must be counted as dropped.
	for i := 0; i < 2; i++ {
		if err := f.Register(fmt.Sprintf("home-%d", i), sys, TenantOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		for _, ev := range ghostSequence() {
			if err := f.Submit(fmt.Sprintf("home-%d", i), ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for f.FleetStats().AlarmsDropped < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("alarm drop never surfaced: stats %+v", f.FleetStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.Stats().AlarmsDropped; got != 1 {
		t.Fatalf("Stats().AlarmsDropped = %d, want 1", got)
	}
}

// flakyDeregisterShard is a hub shard whose next Deregister fails once, as a
// remote shard's does when its link drops mid-handoff.
type flakyDeregisterShard struct {
	*Hub
	fail atomic.Bool
}

func (s *flakyDeregisterShard) Deregister(tenant string) error {
	if s.fail.Swap(false) {
		return fmt.Errorf("%w: injected link drop", ErrShardUnavailable)
	}
	return s.Hub.Deregister(tenant)
}

// TestFleetMigrateRetryCountsOnce pins the stats carry of a handoff that
// fails at the source's Deregister: the home stays served on the source, so
// its counters must not be carried until a retried handoff removes it.
func TestFleetMigrateRetryCountsOnce(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	f := newFleet(FleetConfig{}, 0)
	defer f.Close()
	shards := make(map[int]*flakyDeregisterShard)
	for i := 0; i < 2; i++ {
		s := &flakyDeregisterShard{Hub: NewHub(HubConfig{Workers: 1})}
		id, err := f.AddShardFor(s)
		if err != nil {
			t.Fatal(err)
		}
		shards[id] = s
	}
	if err := f.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	evs := ghostSequence()
	for _, ev := range evs {
		if err := f.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	from, err := f.ShardOf("home")
	if err != nil {
		t.Fatal(err)
	}
	to := -1
	for id := range shards {
		if id != from {
			to = id
		}
	}
	shards[from].fail.Store(true)
	if err := f.Migrate("home", to); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("first migrate: %v, want ErrShardUnavailable", err)
	}
	if err := f.Migrate("home", to); err != nil {
		t.Fatalf("retried migrate: %v", err)
	}
	waitProcessed(t, f, uint64(len(evs)))
	if got := f.Stats().Total; got.Ingested != uint64(len(evs)) || got.Processed != uint64(len(evs)) {
		t.Fatalf("after a retried migration: ingested %d, processed %d; want %d each", got.Ingested, got.Processed, len(evs))
	}
}
