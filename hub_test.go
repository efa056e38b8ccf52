package causaliot

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ghostSequence is a stream whose last event is a ghost light activation
// (light on with nobody around) that a system trained on trainingLog
// reliably alarms on.
func ghostSequence() []Event {
	return []Event{
		{Time: t0, Device: "presence", Value: 1},
		{Time: t0.Add(3 * time.Second), Device: "light", Value: 1},
		{Time: t0.Add(time.Minute), Device: "presence", Value: 0},
		{Time: t0.Add(time.Minute + 4*time.Second), Device: "light", Value: 0},
		{Time: t0.Add(2 * time.Hour), Device: "light", Value: 1},
	}
}

func TestObserveEventDetection(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate state report: light is already off.
	det, err := mon.ObserveEvent(Event{Time: t0, Device: "light", Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Duplicate || det.Score != 0 || det.Alarm != nil {
		t.Errorf("duplicate detection = %+v", det)
	}
	// A real state change carries the unified state.
	det, err = mon.ObserveEvent(Event{Time: t0, Device: "presence", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.Duplicate || det.State != 1 {
		t.Errorf("presence detection = %+v", det)
	}
}

func TestObserveEventSentinelErrors(t *testing.T) {
	sys := mustTrain(t, Config{})
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "ghost", Value: 1}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown device error = %v", err)
	}
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "meter", Value: math.NaN()}); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("NaN reading error = %v", err)
	}
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "meter", Value: math.Inf(1)}); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("Inf reading error = %v", err)
	}
	// Skippable errors leave the detector resumable: a normal event still
	// processes cleanly afterwards.
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "presence", Value: 1}); err != nil {
		t.Errorf("stream did not resume after skippable errors: %v", err)
	}
}

func TestObserveBatch(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	seq := ghostSequence()
	dets, err := mon.ObserveBatch(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(seq) {
		t.Fatalf("batch returned %d detections for %d events", len(dets), len(seq))
	}
	if dets[len(dets)-1].Alarm == nil {
		t.Error("ghost activation not detected by batch")
	}
	// Batch stops at the first error, returning partial results.
	mon2, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{seq[0], {Time: t0, Device: "ghost", Value: 1}, seq[1]}
	dets, err = mon2.ObserveBatch(bad)
	if !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("batch error = %v", err)
	}
	if len(dets) != 1 {
		t.Errorf("partial batch = %d detections, want 1", len(dets))
	}
}

func TestMonitorSwapPreservesChain(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 3})
	sys2 := mustTrainSeed(t, Config{Tau: 3, KMax: 3}, 2)
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	// Seed a chain: ghost light activation starts tracking.
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "light", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if mon.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", mon.Pending())
	}
	// Hot-swap to a retrained system with a different tau: the tracked
	// chain and phantom window must survive.
	if err := mon.Swap(sys2); err != nil {
		t.Fatal(err)
	}
	if mon.Pending() != 1 {
		t.Fatalf("Pending after swap = %d, want 1 (chain lost)", mon.Pending())
	}
	alarm := mon.Flush()
	if alarm == nil || len(alarm.Events) != 1 || alarm.Events[0].Device != "light" {
		t.Fatalf("flushed alarm = %+v", alarm)
	}
	// Swapping to an incompatible inventory fails.
	foreign, err := Train(
		[]Device{{Name: "other", Type: Switch}},
		trainingLogFor("other", 200, 3), Config{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Swap(foreign); err == nil {
		t.Error("swap to a different inventory accepted")
	}
	if err := mon.Swap(nil); err == nil {
		t.Error("swap to nil accepted")
	}
}

// mustTrainSeed trains on a different log seed (same inventory).
func mustTrainSeed(t *testing.T, cfg Config, seed int64) *System {
	t.Helper()
	sys, err := Train(testDevices(), trainingLog(400, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// trainingLogFor synthesizes a minimal single-device log.
func trainingLogFor(device string, n int, seed int64) []Event {
	var log []Event
	ts := t0
	for i := 0; i < n; i++ {
		ts = ts.Add(30 * time.Second)
		log = append(log, Event{Time: ts, Device: device, Value: float64(i % 2)})
	}
	return log
}

func TestHubServesManyHomes(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 4, QueueSize: 64})
	const homes = 4
	for i := 0; i < homes; i++ {
		if err := h.Register(fmt.Sprintf("home-%d", i), sys, TenantOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var alarms sync.Map // tenant -> count
	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		for ta := range h.Alarms() {
			if ta.Alarm == nil || ta.Score <= 0 {
				t.Errorf("malformed alarm delivery: %+v", ta)
			}
			n, _ := alarms.LoadOrStore(ta.Tenant, new(atomic.Uint64))
			n.(*atomic.Uint64).Add(1)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < homes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("home-%d", i)
			for _, ev := range ghostSequence() {
				if err := h.Submit(name, ev); err != nil {
					t.Errorf("submit %s: %v", name, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	consumed.Wait()
	for i := 0; i < homes; i++ {
		name := fmt.Sprintf("home-%d", i)
		n, ok := alarms.Load(name)
		if !ok || n.(*atomic.Uint64).Load() == 0 {
			t.Errorf("%s raised no alarm", name)
		}
	}
	s := h.Stats()
	if len(s.Tenants) != homes {
		t.Fatalf("stats tenants = %d", len(s.Tenants))
	}
	want := uint64(homes * len(ghostSequence()))
	if s.Total.Processed != want || s.Total.Ingested != want {
		t.Errorf("stats total = %+v, want %d processed", s.Total, want)
	}
	if s.Total.Alarms == 0 {
		t.Error("no alarms counted")
	}
}

// TestHubSwapUnderLoad hot-swaps models while producers are streaming;
// nothing may be lost and the stream must keep validating cleanly.
func TestHubSwapUnderLoad(t *testing.T) {
	sysA := mustTrain(t, Config{Tau: 2})
	sysB := mustTrainSeed(t, Config{Tau: 2}, 2)
	h := NewHub(HubConfig{Workers: 4, QueueSize: 256})
	if err := h.Register("home", sysA, TenantOptions{
		OnAlarm: func(string, *Alarm, float64) {},
	}); err != nil {
		t.Fatal(err)
	}
	const producers, each, swaps = 4, 250, 40
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := t0
			for j := 0; j < each; j++ {
				ts = ts.Add(time.Second)
				ev := Event{Time: ts, Device: "light", Value: float64(j % 2)}
				if err := h.Submit("home", ev); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(i)
	}
	for k := 0; k < swaps; k++ {
		sys := sysA
		if k%2 == 0 {
			sys = sysB
		}
		if err := h.Swap("home", sys); err != nil {
			t.Fatalf("swap %d: %v", k, err)
		}
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats().Total
	if s.Processed != producers*each || s.Dropped != 0 || s.Errors != 0 {
		t.Fatalf("hot swap lost events: %+v", s)
	}
	if err := h.Swap("ghost", sysA); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("swap unknown tenant = %v", err)
	}
}

func TestHubCallbacksAndSkippableErrors(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	var alarmed, errored atomic.Uint64
	h := NewHub(HubConfig{Workers: 2})
	err := h.Register("home", sys, TenantOptions{
		Backpressure: BackpressureReject,
		QueueSize:    128,
		OnAlarm: func(tenant string, alarm *Alarm, score float64) {
			if tenant == "home" && alarm != nil {
				alarmed.Add(1)
			}
		},
		OnError: func(tenant string, ev Event, err error) {
			if errors.Is(err, ErrUnknownDevice) && ev.Device == "intruder" {
				errored.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := ghostSequence()
	// An unknown-device event mid-stream is skipped, not fatal.
	for _, ev := range append(seq[:2:2], append([]Event{{Time: t0, Device: "intruder", Value: 1}}, seq[2:]...)...) {
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if alarmed.Load() == 0 {
		t.Error("OnAlarm callback never fired")
	}
	if errored.Load() != 1 {
		t.Errorf("OnError fired %d times, want 1", errored.Load())
	}
	s := h.Stats().Total
	if s.Errors != 1 || s.Processed != uint64(len(seq)+1) {
		t.Errorf("stats = %+v", s)
	}
}

// TestOnErrorKeepsSeq checks that a refused event reaches OnError whole, its
// producer-assigned Seq included, on a hub and on a fleet.
func TestOnErrorKeepsSeq(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	for _, host := range []Host{NewHub(HubConfig{Workers: 1}), NewFleet(FleetConfig{Shards: 2})} {
		got := make(chan Event, 1)
		err := host.Register("home", sys, TenantOptions{
			OnError: func(_ string, ev Event, _ error) { got <- ev },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Submit("home", Event{Time: t0, Device: "ghost", Value: 1, Seq: 42}); err != nil {
			t.Fatal(err)
		}
		if err := host.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-got:
			if ev.Device != "ghost" || ev.Seq != 42 {
				t.Errorf("%T: OnError got %+v, want device ghost with Seq 42", host, ev)
			}
		default:
			t.Errorf("%T: OnError never fired", host)
		}
	}
}

func TestHubFlushReportsPartialChain(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 3})
	h := NewHub(HubConfig{Workers: 1})
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	// Ghost activation seeds a chain that never reaches kmax.
	if err := h.Submit("home", Event{Time: t0, Device: "light", Value: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Total.Processed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("event never processed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Flush("home"); err != nil {
		t.Fatal(err)
	}
	select {
	case ta := <-h.Alarms():
		if ta.Tenant != "home" || ta.Alarm == nil || !ta.Alarm.Abrupt {
			t.Errorf("flushed alarm = %+v", ta)
		}
	default:
		t.Error("flush delivered no alarm")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHubRegisterValidation(t *testing.T) {
	sys := mustTrain(t, Config{})
	h := NewHub(HubConfig{Workers: 1})
	if err := h.Register("home", nil, TenantOptions{}); err == nil {
		t.Error("nil system accepted")
	}
	if err := h.Register("home", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Deregister("home"); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("home", Event{}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("submit after deregister = %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
	if err := h.Submit("home", Event{}); !errors.Is(err, ErrHubClosed) {
		t.Errorf("submit after close = %v", err)
	}
}

// TestHubQuarantineObservable drives the facade circuit breaker: a home
// whose events keep failing (reports from a device the model was never
// trained on) trips quarantine after the configured failure count, the state
// is visible in Stats, and further submissions fail with ErrQuarantined.
func TestHubQuarantineObservable(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 1, QuarantineAfter: 4, QuarantineBackoff: time.Hour})
	defer h.Close()
	if err := h.Register("sick", sys, TenantOptions{OnError: func(string, Event, error) {}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("healthy", sys, TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := h.Submit("sick", Event{Device: "intruder", Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	var ts TenantStats
	for {
		for _, s := range h.Stats().Tenants {
			if s.Tenant == "sick" {
				ts = s
			}
		}
		if ts.Health == HealthQuarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped; stats %+v", ts)
		}
		time.Sleep(time.Millisecond)
	}
	if ts.Errors != 4 || ts.LastError == "" {
		t.Errorf("stats at trip = %+v", ts)
	}
	if got := ts.Health.String(); got != "quarantined" {
		t.Errorf("health string = %q", got)
	}
	if err := h.Submit("sick", Event{Device: "light", Value: 1}); !errors.Is(err, ErrQuarantined) {
		t.Errorf("quarantined submit = %v, want ErrQuarantined", err)
	}
	// The healthy neighbour is untouched.
	if err := h.Submit("healthy", Event{Device: "light", Value: 1}); err != nil {
		t.Errorf("healthy submit = %v", err)
	}
	if s := h.Stats(); s.Total.Health != HealthQuarantined {
		t.Errorf("total health = %v, want quarantined roll-up", s.Total.Health)
	}
}

// TestHubCloseWithinDeadline pins the facade drain deadline: a home wedged
// inside its alarm callback cannot hang shutdown — CloseWithin returns
// ErrDrainTimeout and leaves the Alarms channel open for the late delivery.
func TestHubCloseWithinDeadline(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	release := make(chan struct{})
	defer close(release)
	h := NewHub(HubConfig{Workers: 1})
	entered := make(chan struct{})
	var once sync.Once
	wedged := func(string, *Alarm, float64) {
		once.Do(func() { close(entered) })
		<-release
	}
	if err := h.Register("home", sys, TenantOptions{OnAlarm: wedged}); err != nil {
		t.Fatal(err)
	}
	for _, e := range ghostSequence() {
		if err := h.Submit("home", e); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // the worker is wedged in the callback
	if err := h.CloseWithin(100 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("CloseWithin = %v, want ErrDrainTimeout", err)
	}
	if err := h.Submit("home", Event{}); !errors.Is(err, ErrHubClosed) {
		t.Errorf("submit after abandoned close = %v", err)
	}
	// A second close is a no-op, not a panic on the still-open channel.
	if err := h.Close(); err != nil {
		t.Errorf("close after timeout = %v", err)
	}
}

// TestHubAlarmRouteAndSeq: a SetAlarmRoute sink takes precedence over the
// home's OnAlarm callback, delivered alarms carry the Seq of the completing
// event, and clearing the route restores the previous delivery.
func TestHubAlarmRouteAndSeq(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	h := NewHub(HubConfig{Workers: 2})
	var viaCallback atomic.Uint64
	if err := h.Register("home", sys, TenantOptions{
		OnAlarm: func(string, *Alarm, float64) { viaCallback.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}
	routed := make(chan TenantAlarm, 4)
	if err := h.SetAlarmRoute("home", func(ta TenantAlarm) { routed <- ta }); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAlarmRoute("ghost", nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("route for unknown tenant = %v", err)
	}
	for i, ev := range ghostSequence() {
		ev.Seq = uint64(100 + i)
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case ta := <-routed:
		if ta.Tenant != "home" || ta.Alarm == nil {
			t.Fatalf("routed alarm = %+v", ta)
		}
		// The ghost activation is the 5th event of the sequence.
		if ta.Seq != 104 {
			t.Fatalf("alarm seq = %d, want 104", ta.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("routed alarm not delivered")
	}
	if viaCallback.Load() != 0 {
		t.Fatal("OnAlarm fired despite an active route")
	}
	// Clearing the route restores the OnAlarm delivery.
	if err := h.SetAlarmRoute("home", nil); err != nil {
		t.Fatal(err)
	}
	for i, ev := range ghostSequence() {
		ev.Time = ev.Time.Add(6 * time.Hour)
		ev.Seq = uint64(200 + i)
		if err := h.Submit("home", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if viaCallback.Load() == 0 {
		t.Fatal("OnAlarm not restored after clearing the route")
	}
	select {
	case ta := <-routed:
		t.Fatalf("cleared route still received %+v", ta)
	default:
	}
}
