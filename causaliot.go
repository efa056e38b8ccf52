// Package causaliot is an anomaly-detection library for smart homes and
// other IoT deployments, reproducing the system described in "IoT Anomaly
// Detection Via Device Interaction Graph" (DSN 2023).
//
// CausalIoT profiles normal device behaviour as a device interaction graph
// (DIG): a temporally extended causal graph whose edges are device
// interactions mined from logged device events with the TemporalPC
// algorithm, and whose conditional probability tables quantify how likely a
// device state is under its causes. At runtime, every incoming event is
// scored against the graph: an event that violates its interaction context
// is a contextual anomaly, and the chain of events that follows an
// unsolicited interaction execution is a collective anomaly.
//
// Basic use:
//
//	sys, err := causaliot.Train(devices, log, causaliot.Config{})
//	mon, err := sys.NewMonitor()
//	for ev := range events {
//	    det, err := mon.ObserveEvent(ev)
//	    if det.Alarm != nil { ... }
//	}
//
// To serve many independent homes concurrently, host their trained systems
// on a Hub (see NewHub): each home keeps a strictly ordered event stream
// behind a bounded queue while different homes are validated in parallel by
// a shared worker pool.
package causaliot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/pc"
	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// DeviceType classifies a device's value type, mirroring the platform
// attribute classes of the paper's Table I.
type DeviceType int

// Device types.
const (
	// Switch is a binary actuator (ON/OFF).
	Switch DeviceType = iota + 1
	// Presence is a binary motion/occupancy sensor.
	Presence
	// Contact is a binary door/window sensor.
	Contact
	// Dimmer is a responsive numeric actuator (zero when off).
	Dimmer
	// WaterMeter is a responsive numeric flow sensor.
	WaterMeter
	// Power is a responsive numeric appliance-usage sensor.
	Power
	// Brightness is an ambient numeric luminosity sensor.
	Brightness
	// GenericBinary is any other ON/OFF state.
	GenericBinary
	// GenericResponsive is any other zero-when-idle numeric state.
	GenericResponsive
	// GenericAmbient is any other continuous environmental measurement.
	GenericAmbient
)

func (t DeviceType) attribute() (event.Attribute, error) {
	switch t {
	case Switch:
		return event.Switch, nil
	case Presence:
		return event.PresenceSensor, nil
	case Contact:
		return event.ContactSensor, nil
	case Dimmer:
		return event.Dimmer, nil
	case WaterMeter:
		return event.WaterMeter, nil
	case Power:
		return event.PowerSensor, nil
	case Brightness:
		return event.BrightnessSensor, nil
	case GenericBinary:
		return event.Attribute{Name: "generic-binary", Abbrev: "GB", Class: event.Binary, Description: "generic binary state"}, nil
	case GenericResponsive:
		return event.Attribute{Name: "generic-responsive", Abbrev: "GR", Class: event.ResponsiveNumeric, Description: "generic responsive numeric state"}, nil
	case GenericAmbient:
		return event.Attribute{Name: "generic-ambient", Abbrev: "GA", Class: event.AmbientNumeric, Description: "generic ambient numeric state"}, nil
	default:
		return event.Attribute{}, fmt.Errorf("causaliot: unknown device type %d", int(t))
	}
}

// Device describes one IoT device bound to the platform.
type Device struct {
	// Name uniquely identifies the device.
	Name string
	// Type is the device's value class.
	Type DeviceType
	// Location is the installation location (used for reporting only).
	Location string
}

// Event is a raw device state report: Seq, Time, Device and Value. Seq is
// an optional producer-assigned sequence number. Detection does not
// interpret it; it is echoed back in TenantAlarm.Seq (and over the network
// in wire Nack and alarm frames) so producers can correlate alarms and refusals
// with the events that caused them. Zero means unassigned.
type Event = event.Report

// Config tunes training and detection. The zero value selects the defaults
// the paper's evaluation uses.
type Config struct {
	// Tau is the maximum time lag in event steps; 0 selects it
	// automatically as feedback-duration / average event interval
	// (paper §V-A).
	Tau int
	// MaxDuration is the feedback duration d for automatic τ selection.
	// Defaults to 60 s.
	MaxDuration time.Duration
	// Alpha is the significance threshold of the conditional-independence
	// tests. Defaults to 0.001.
	Alpha float64
	// MaxCondSize caps the conditioning-set size. Defaults to 3; 0 keeps
	// the default, negative values mean unbounded.
	MaxCondSize int
	// MinObsPerDOF is the G² small-sample heuristic. Defaults to 5.
	MinObsPerDOF int
	// MaxParents caps the causes kept per device. Defaults to 8.
	MaxParents int
	// EventAnchors switches the CI tests to event-anchored mode (an
	// ablation; see the pc package).
	EventAnchors bool
	// Smoothing is the CPT Laplace pseudo-count. Defaults to 0.01.
	Smoothing float64
	// Quantile is the score-threshold percentile over the logged events'
	// anomaly scores. Defaults to 99.
	Quantile float64
	// MinThreshold floors the calibrated threshold: on near-deterministic
	// training data the 99th-percentile score can degenerate to zero, and
	// an event should at least be less likely than its alternative before
	// it is called anomalous. Defaults to 0.5; negative disables.
	MinThreshold float64
	// KMax is the maximum anomaly-chain length tracked at runtime
	// (k-sequence detection, Algorithm 2). Defaults to 1 (contextual
	// detection only).
	KMax int
}

func (c Config) withDefaults() Config {
	if c.MaxDuration <= 0 {
		c.MaxDuration = preprocess.DefaultMaxDuration
	}
	if c.Alpha <= 0 {
		c.Alpha = pc.DefaultAlpha
	}
	if c.MaxCondSize == 0 {
		c.MaxCondSize = 3
	} else if c.MaxCondSize < 0 {
		c.MaxCondSize = 0
	}
	if c.MinObsPerDOF == 0 {
		c.MinObsPerDOF = 5
	}
	if c.MaxParents == 0 {
		c.MaxParents = 8
	}
	if c.Smoothing == 0 {
		c.Smoothing = 0.01
	}
	if c.Quantile <= 0 {
		c.Quantile = monitor.DefaultQuantile
	}
	if c.MinThreshold == 0 {
		c.MinThreshold = 0.5
	} else if c.MinThreshold < 0 {
		c.MinThreshold = 0
	}
	if c.KMax <= 0 {
		c.KMax = 1
	}
	return c
}

// Interaction is a mined device interaction: operating Cause directly
// affects Outcome after Lag events.
type Interaction struct {
	Cause   string
	Outcome string
	Lag     int
}

// System is a trained CausalIoT instance: the mined device interaction
// graph plus the calibrated score threshold.
type System struct {
	cfg       Config
	devices   []event.Device
	pre       *preprocess.Preprocessor
	graph     *dig.Graph
	threshold float64
	initial   timeseries.State
	// compiled is the frozen serving form of graph (flattened parents +
	// dense score tables), built once and shared read-only by every
	// Monitor of this system.
	compiled *dig.Compiled
	// causeLabels[dev][lag-1] is the pre-rendered "name@t-lag" context key
	// for lag ∈ [1, Tau], so alarm conversion never formats strings on the
	// delivery path.
	causeLabels [][]string
	// unify is the index-keyed compiled form of the preprocessor's
	// unification rules, sparing ObserveEvent a name-keyed map lookup per
	// event.
	unify *preprocess.Unifier
	// nameIdx is the compiled device-name resolver, replacing the
	// registry's string-hashing map lookup on the per-event path.
	nameIdx *timeseries.NameIndex
	// fp is the graph's content address, computed at compile time. It keys
	// the process-wide compiled-model cache so same-model systems share one
	// Compiled, and it is embedded in checkpoint envelopes to pin model
	// identity across a resume.
	fp dig.Fingerprint
	// graphShared marks graph as the cache-interned instance adopted from
	// another system; it must never be mutated in place (Extend takes a
	// private copy first via ensurePrivateGraph).
	graphShared bool
}

// servingAux bundles the derived serving tables that are pure functions of
// the model content plus the preprocessing configuration — shareable across
// all systems with the same fingerprint and aux key, and by far the largest
// per-tenant state after the compiled tables themselves (the pre-rendered
// cause labels alone dwarf the detector window).
type servingAux struct {
	pre         *preprocess.Preprocessor
	causeLabels [][]string
	unify       *preprocess.Unifier
	nameIdx     *timeseries.NameIndex
}

// auxKey hashes the serving configuration that the model fingerprint does
// not cover: unification thresholds and device attribute metadata (plus the
// config knobs that shape the preprocessor). Two systems share serving
// tables only when both the fingerprint and this key match.
func (s *System) auxKey() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(str string) {
		writeU64(uint64(len(str)))
		h.Write([]byte(str))
	}
	writeU64(uint64(s.cfg.MaxDuration))
	writeU64(uint64(s.cfg.Tau))
	for _, d := range s.devices {
		writeStr(d.Name)
		writeStr(d.Attribute.Name)
		writeU64(uint64(d.Attribute.Class))
		writeStr(d.Location)
	}
	thresholds := s.pre.Thresholds()
	names := make([]string, 0, len(thresholds))
	for name := range thresholds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writeStr(name)
		writeU64(math.Float64bits(thresholds[name]))
	}
	return h.Sum64()
}

// ensurePrivateGraph replaces a cache-shared graph with a private mutable
// copy (same structure, same counts) so in-place refits (Extend) can never
// corrupt other tenants of the interned model.
func (s *System) ensurePrivateGraph() error {
	if !s.graphShared {
		return nil
	}
	g := s.graph.CloneStructure()
	if err := g.Merge(s.graph); err != nil {
		return fmt.Errorf("causaliot: unshare graph: %w", err)
	}
	s.graph = g
	s.graphShared = false
	return nil
}

// compile freezes the current graph into its serving form and pre-renders
// the per-node cause label strings. It must be re-run whenever the graph's
// CPTs change in place (Extend). When the process-wide model cache already
// holds a Compiled with this graph's content address, the system adopts the
// interned instance (and, when the serving configuration matches, the
// shared serving tables) instead of compiling a private duplicate; the
// freshly fitted graph is dropped for the shared one, marked read-only via
// graphShared. compile only peeks at the cache — residency references are
// taken per Monitor (NewMonitor/Swap) and released on Monitor.Close, so a
// transient System (lifecycle refresh) can be discarded without leaking.
func (s *System) compile() error {
	fp := s.graph.Fingerprint()
	if comp := dig.CacheLookup(fp); comp != nil {
		s.compiled = comp
		s.graph = comp.Graph()
		s.graphShared = true
		s.fp = fp
		if aux, ok := dig.CacheAux(fp, s.auxKey()).(*servingAux); ok {
			s.pre = aux.pre
			s.causeLabels = aux.causeLabels
			s.unify = aux.unify
			s.nameIdx = aux.nameIdx
			return nil
		}
		s.buildServingTables()
		return nil
	}
	comp, err := dig.Compile(s.graph)
	if err != nil {
		return fmt.Errorf("causaliot: compile graph: %w", err)
	}
	s.compiled = comp
	s.graphShared = false
	s.fp = fp
	s.buildServingTables()
	return nil
}

// buildServingTables derives the per-model serving state (cause labels,
// compiled unifier, name index) from the current graph and preprocessor.
func (s *System) buildServingTables() {
	reg := s.graph.Registry
	labels := make([][]string, reg.Len())
	for dev := range labels {
		perLag := make([]string, s.graph.Tau)
		for lag := 1; lag <= s.graph.Tau; lag++ {
			perLag[lag-1] = fmt.Sprintf("%s@t-%d", reg.Name(dev), lag)
		}
		labels[dev] = perLag
	}
	s.causeLabels = labels
	s.unify = s.pre.CompileUnifier()
	s.nameIdx = reg.CompileIndex()
}

// ModelFingerprint returns the hex content address of the served model;
// same string ⇒ bit-identical compiled scoring tables.
func (s *System) ModelFingerprint() string { return s.fp.String() }

// causeLabel returns the "name@t-lag" context key for a cause node, served
// from the pre-rendered table; lags outside the current graph's window
// (possible for chain events recorded before a hot-swap to a smaller Tau)
// fall back to formatting.
func (s *System) causeLabel(dev, lag int) string {
	if dev >= 0 && dev < len(s.causeLabels) && lag >= 1 && lag <= len(s.causeLabels[dev]) {
		return s.causeLabels[dev][lag-1]
	}
	return fmt.Sprintf("%s@t-%d", s.graph.Registry.Name(dev), lag)
}

// Train mines the device interaction graph from a training log of raw
// device events and calibrates the anomaly-score threshold. The log should
// contain normal (anomaly-free or nearly so) behaviour, per the paper's
// semi-supervised setting.
func Train(devices []Device, log []Event, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if len(devices) == 0 {
		return nil, errors.New("causaliot: no devices")
	}
	if len(log) == 0 {
		return nil, errors.New("causaliot: empty training log")
	}
	internalDevices := make([]event.Device, len(devices))
	for i, d := range devices {
		attr, err := d.Type.attribute()
		if err != nil {
			return nil, err
		}
		internalDevices[i] = event.Device{Name: d.Name, Attribute: attr, Location: d.Location}
	}
	pre, err := preprocess.New(internalDevices, preprocess.Config{
		MaxDuration: cfg.MaxDuration,
		TauOverride: cfg.Tau,
	})
	if err != nil {
		return nil, err
	}
	internalLog := make(event.Log, len(log))
	for i, e := range log {
		internalLog[i] = event.Event{Timestamp: e.Time, Device: e.Device, Value: e.Value}
	}
	res, err := pre.Process(internalLog)
	if err != nil {
		return nil, fmt.Errorf("causaliot: preprocess: %w", err)
	}
	miner := pc.NewMiner(pc.Config{
		Alpha:        cfg.Alpha,
		MaxCondSize:  cfg.MaxCondSize,
		MinObsPerDOF: cfg.MinObsPerDOF,
		MaxParents:   cfg.MaxParents,
		EventAnchors: cfg.EventAnchors,
	})
	graph, _, _, err := miner.Mine(res.Series, res.Tau, cfg.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("causaliot: mine: %w", err)
	}
	threshold, err := monitor.Threshold(graph, res.Series, cfg.Quantile)
	if err != nil {
		return nil, fmt.Errorf("causaliot: threshold: %w", err)
	}
	if threshold < cfg.MinThreshold {
		threshold = cfg.MinThreshold
	}
	sys := &System{
		cfg:       cfg,
		devices:   internalDevices,
		pre:       pre,
		graph:     graph,
		threshold: threshold,
		initial:   res.Series.State(res.Series.Len()).Clone(),
	}
	if err := sys.compile(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Tau returns the maximum time lag the system was trained with.
func (s *System) Tau() int { return s.graph.Tau }

// Threshold returns the calibrated anomaly-score threshold c.
func (s *System) Threshold() float64 { return s.threshold }

// Interactions returns every mined device interaction, sorted.
func (s *System) Interactions() []Interaction {
	reg := s.graph.Registry
	var out []Interaction
	for _, in := range s.graph.Interactions() {
		out = append(out, Interaction{
			Cause:   reg.Name(in.Cause),
			Outcome: reg.Name(in.Outcome),
			Lag:     in.Lag,
		})
	}
	return out
}

// GraphDOT renders the lag-collapsed device interaction graph in Graphviz
// DOT syntax.
func (s *System) GraphDOT() string { return s.graph.DOT() }

// Likelihood returns P(device = state | context), where context maps cause
// device names to their binary states; missing causes default to 0.
func (s *System) Likelihood(device string, state int, context map[string]int) (float64, error) {
	reg := s.graph.Registry
	idx, ok := reg.Index(device)
	if !ok {
		return 0, fmt.Errorf("causaliot: unknown device %q", device)
	}
	causes := s.graph.Parents(idx)
	values := make([]int, len(causes))
	for i, c := range causes {
		values[i] = context[reg.Name(c.Device)]
	}
	return s.graph.Likelihood(idx, state, values)
}

// AnomalousEvent is one member of a reported anomaly chain: the offending
// device and state, its anomaly score, and its interaction context as a
// name-sorted list of causes ("device@t-lag") with their states.
type AnomalousEvent = event.AlarmEvent

// ContextEntry is one cause of an anomalous event's interaction context.
type ContextEntry = event.ContextEntry

// Alarm reports a detected anomaly: Events[0] is the contextual anomaly and
// any following entries are the collective anomaly chain that executed
// under the polluted context. Seq and Score cite the event that completed
// the chain. It is the same type the wire protocol pushes to producers.
type Alarm = event.Alarm

// Sentinel errors returned while observing a runtime stream. Match them
// with errors.Is to tell skippable events from fatal ones: an event from a
// device outside the inventory or a non-finite sensor glitch can be dropped
// and the stream resumed, while any other error signals misconfiguration.
var (
	// ErrUnknownDevice marks an event from a device the system was not
	// trained on.
	ErrUnknownDevice = errors.New("causaliot: unknown device")
	// ErrValueOutOfRange marks a reading (NaN, ±Inf) no unification rule
	// can classify.
	ErrValueOutOfRange = errors.New("causaliot: value out of range")
)

// Detection is the outcome of observing one runtime event.
type Detection struct {
	// Alarm is non-nil when the event completed (or abruptly terminated)
	// an anomaly chain.
	Alarm *Alarm
	// Score is the event's anomaly score f(e, G, 𝒢) ∈ [0,1]; duplicated
	// state reports score 0.
	Score float64
	// State is the unified binary device state the event mapped to.
	State int
	// Duplicate reports that the event repeated the tracked device state
	// and was skipped, mirroring the preprocessor's sanitation.
	Duplicate bool
}

// Monitor validates a runtime event stream against the trained system.
// A Monitor is not safe for concurrent use; to serve many streams in
// parallel, host one monitor per home on a Hub.
type Monitor struct {
	sys *System
	det *monitor.Detector
	// observed counts every ObserveEvent call, including ones that failed
	// with a skippable error and never reached the detector. It is the
	// stream-position a resumed process skips to when replaying a source
	// log after restoring a checkpoint.
	observed int
	// lc is the online model-lifecycle state (drift evidence, sliding refit
	// log, refresh signalling); nil unless EnableAdaptive was called.
	lc *adaptState
	// fpRef is the fingerprint this monitor holds a model-cache reference
	// on. It is tracked separately from m.sys.fp so error paths in Swap
	// release the right entry.
	fpRef dig.Fingerprint
	// closed marks the cache reference as released; further cache
	// operations are skipped.
	closed bool
}

// NewMonitor starts runtime monitoring from the state at the end of the
// training log. Monitors score events on the zero-allocation compiled path,
// sharing the system's compiled graph read-only. The monitor takes a
// reference on the process-wide model cache (interning the model on first
// use, joining the shared instance otherwise); release it with Close when
// the monitor is permanently done — the Hub and Fleet do this on
// Deregister/CloseWithin for monitors they host.
func (s *System) NewMonitor() (*Monitor, error) {
	comp := dig.CacheAcquire(s.fp, s.compiled)
	det, err := monitor.NewDetectorFromCompiled(comp, s.threshold, s.cfg.KMax, s.initial)
	if err != nil {
		dig.CacheRelease(s.fp)
		return nil, err
	}
	dig.CacheStoreAux(s.fp, s.auxKey(), &servingAux{
		pre:         s.pre,
		causeLabels: s.causeLabels,
		unify:       s.unify,
		nameIdx:     s.nameIdx,
	})
	return &Monitor{sys: s, det: det, fpRef: s.fp}, nil
}

// Close releases the monitor's reference on the shared compiled-model
// cache. It is idempotent and does not invalidate in-flight reads (the
// compiled tables stay reachable through the system), but a closed monitor
// no longer pins cache residency and must not be handed new events or
// swapped. Hosts (Hub/Fleet) close monitors they registered; standalone
// monitors should be closed by their creator when retired.
func (m *Monitor) Close() {
	if m.closed {
		return
	}
	m.closed = true
	dig.CacheRelease(m.fpRef)
	m.fpRef = dig.Fingerprint{}
}

// ObserveEvent ingests one raw device event and reports what the detector
// did with it. Errors matching ErrUnknownDevice or ErrValueOutOfRange are
// skippable: the detector state is untouched and the stream can resume with
// the next event.
func (m *Monitor) ObserveEvent(e Event) (Detection, error) {
	m.observed++
	idx, ok := m.sys.nameIdx.Index(e.Device)
	if !ok {
		return Detection{}, fmt.Errorf("%w %q", ErrUnknownDevice, e.Device)
	}
	state, err := m.sys.unify.Unify(idx, e.Value)
	if err != nil {
		switch {
		case errors.Is(err, preprocess.ErrValueOutOfRange):
			return Detection{}, fmt.Errorf("%w: device %q reported %v", ErrValueOutOfRange, e.Device, e.Value)
		case errors.Is(err, preprocess.ErrUnknownDevice):
			return Detection{}, fmt.Errorf("%w %q", ErrUnknownDevice, e.Device)
		}
		return Detection{}, err
	}
	step := timeseries.Step{Device: idx, Value: state, Time: e.Time}
	res, err := m.det.ProcessStep(step)
	if err != nil {
		return Detection{}, err
	}
	if m.lc != nil && !res.Duplicate {
		m.observeAccepted(step)
	}
	return Detection{
		Alarm:     m.convertAlarm(res.Alarm, e.Seq, res.Score),
		Score:     res.Score,
		State:     state,
		Duplicate: res.Duplicate,
	}, nil
}

// ObserveBatch ingests a slice of events in order, amortizing per-call
// overhead. It stops at the first error, returning the detections made so
// far together with the error; callers distinguishing skippable errors
// (ErrUnknownDevice, ErrValueOutOfRange) can resume with the remaining
// events.
func (m *Monitor) ObserveBatch(events []Event) ([]Detection, error) {
	out := make([]Detection, 0, len(events))
	for i, e := range events {
		det, err := m.ObserveEvent(e)
		if err != nil {
			return out, fmt.Errorf("event %d: %w", i, err)
		}
		out = append(out, det)
	}
	return out, nil
}

// Swap atomically adopts a retrained (or Extend-ed and re-saved) system
// between events: the monitor keeps its phantom state window and any
// partially tracked k-sequence chain while scoring subsequent events
// against the new graph, threshold, and KMax. The new system must cover
// the same device inventory. Swap is not safe for concurrent use with
// ObserveEvent; a Hub serializes the two (see Hub.Swap).
func (m *Monitor) Swap(sys *System) error {
	if sys == nil {
		return errors.New("causaliot: swap to nil system")
	}
	// Acquire the incoming model's cache entry before touching the
	// detector, transfer the reference only on success, and release the
	// outgoing model after — so no window exists where either entry's
	// residency is unpinned. A closed monitor holds no reference.
	useCache := !m.closed
	comp := sys.compiled
	if useCache {
		comp = dig.CacheAcquire(sys.fp, sys.compiled)
	}
	if err := m.det.SwapCompiled(comp, sys.threshold, sys.cfg.KMax); err != nil {
		if useCache {
			dig.CacheRelease(sys.fp)
		}
		return err
	}
	if useCache {
		dig.CacheRelease(m.fpRef)
		m.fpRef = sys.fp
	}
	m.sys = sys
	if m.lc != nil {
		// Drift evidence gathered against the old model's parent layout is
		// meaningless under the new one: rebind resets the accumulator and
		// clears any parked drift verdict.
		if err := m.lc.rebind(m); err != nil {
			return err
		}
	}
	return nil
}

// Observed returns the number of events this monitor has been handed via
// ObserveEvent (counting events skipped with ErrUnknownDevice or
// ErrValueOutOfRange). After restoring a checkpoint, replay the source log
// from this position to resume the stream exactly where it was cut.
func (m *Monitor) Observed() int { return m.observed }

// Pending returns the number of events in the partially tracked anomaly
// chain (0 when the monitor is not mid-chain).
func (m *Monitor) Pending() int { return m.det.Pending() }

// Flush reports any partially tracked anomaly chain (e.g. at shutdown).
func (m *Monitor) Flush() *Alarm { return m.convertAlarm(m.det.Flush(), 0, 0) }

// convertAlarm renders the detector's index-keyed alarm in device names,
// citing the event that completed it (seq and score; zero for a Flush).
// Each event's context is built in name order by insertion: parent lists
// are short, and the order is the canonical one the wire encodes. Three
// allocations whatever the chain's length: the alarm, its events, and one
// array every event's context is a capacity-capped window of.
func (m *Monitor) convertAlarm(alarm *monitor.Alarm, seq uint64, score float64) *Alarm {
	if alarm == nil {
		return nil
	}
	reg := m.sys.graph.Registry
	out := &Alarm{Seq: seq, Score: score, Abrupt: alarm.Abrupt, Events: make([]AnomalousEvent, len(alarm.Events))}
	var ctxs []ContextEntry
	if n := causeCount(alarm); n > 0 {
		ctxs = make([]ContextEntry, n)
	}
	for i, ev := range alarm.Events {
		var ctx []ContextEntry // nil without causes, as a decoded frame has it
		if n := len(ev.Causes); n > 0 {
			ctx, ctxs = ctxs[:0:n], ctxs[n:]
		}
		for j, c := range ev.Causes {
			entry := ContextEntry{Name: m.sys.causeLabel(c.Device, c.Lag), State: ev.CauseValues[j]}
			k := len(ctx)
			ctx = append(ctx, entry)
			for ; k > 0 && ctx[k-1].Name > entry.Name; k-- {
				ctx[k] = ctx[k-1]
			}
			ctx[k] = entry
		}
		out.Events[i] = AnomalousEvent{
			Device:  reg.Name(ev.Step.Device),
			State:   ev.Step.Value,
			Score:   ev.Score,
			Context: ctx,
		}
	}
	return out
}

// causeCount is the number of context entries across an alarm's chain.
func causeCount(alarm *monitor.Alarm) int {
	n := 0
	for _, ev := range alarm.Events {
		n += len(ev.Causes)
	}
	return n
}
