package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/pc"
	"github.com/causaliot/causaliot/internal/preprocess"
	"github.com/causaliot/causaliot/internal/wire"
)

// trainConfig is the model configuration every workload serves: the
// defaults serve and loadgen train with, at lag 2.
var trainConfig = causaliot.Config{Tau: 2}

// spec is one workload's serving shape.
type spec struct {
	models int
	homes  int
	// conns is the number of wire session producers, one per home; 0 means
	// the in-process producer drives Host.Submit directly.
	conns   int
	cluster bool
	// paced makes every round open-loop; otherwise the rounds run
	// unthrottled, and a traced run paces its last rounds (latencyShare).
	paced bool
	// rate is the paced rounds' offered events/s, all producers together:
	// about 15% of the workload's unthrottled capacity on a 2-vCPU VM.
	rate float64
	// ring sizes the per-home stamp rings: it must exceed the events one
	// home can have in flight between send and alarm delivery.
	ring int
}

var specs = map[string]spec{
	"hub-burst":       {models: 4, homes: 64, rate: 400_000, ring: 1 << 12},
	"wire-burst":      {models: 1, homes: 2, conns: 2, rate: 100_000, ring: 1 << 16},
	"wire-paced":      {models: 1, homes: 2, conns: 2, paced: true, rate: 100_000, ring: 1 << 16},
	"cluster-migrate": {models: 1, homes: 2, conns: 2, cluster: true, rate: 50_000, ring: 1 << 16},
}

// home is one served home: its stream, the producer's cursor, the stamps
// the latency metrics are taken from, and the alarms it received.
type home struct {
	name   string
	model  int
	stream homeStream
	// next is the sequence number the producer sends next. Only the
	// home's producer goroutine touches it while a round runs.
	next uint64
	// due is stamped by the producer (when each event was due), submitted
	// by the host decorator (Submit return) and fired by the decorated
	// alarm sink.
	due, submitted, fired *stampRing

	mu       sync.Mutex
	alarms   []alarmRec      // received since the last parity check
	received uint64          // alarms received over the whole run
	skipped  map[uint64]bool // sequence numbers the host refused
}

// alarmRec is one alarm as the producer received it.
type alarmRec struct {
	seq    uint64
	score  float64
	events int
	device string
	state  int
	abrupt bool
	// lat is due time → receipt in ns, or -1 when the stamp was gone.
	lat int64
}

func (h *home) receive(a alarmRec, now int64) {
	a.lat = -1
	if due, ok := h.due.get(a.seq); ok {
		a.lat = now - due
	}
	h.mu.Lock()
	h.alarms = append(h.alarms, a)
	h.received++
	h.mu.Unlock()
}

func (h *home) skip(seq uint64) {
	h.mu.Lock()
	if h.skipped == nil {
		h.skipped = make(map[uint64]bool)
	}
	h.skipped[seq] = true
	h.mu.Unlock()
}

// newHomes builds the homes; the decorator's rings exist only in a traced
// run.
func newHomes(sp spec, t *traffic, traced bool) []*home {
	out := make([]*home, sp.homes)
	for i := range out {
		h := &home{
			name:   fmt.Sprintf("home-%d", i),
			model:  i % sp.models,
			stream: t.stream(i),
			next:   1,
			due:    newStampRing(sp.ring),
		}
		if traced {
			h.submitted, h.fired = newStampRing(sp.ring), newStampRing(sp.ring)
		}
		out[i] = h
	}
	return out
}

// producer is one wire session feeding one home.
type producer struct {
	home *home
	sc   *wire.SessionClient

	sent       int64
	windowFull int64   // events that met a full window at least once
	sendNs     int64   // time inside Send+Flush, traced rounds only
	sendEvents int64   // events those nanoseconds cover
	late       []int64 // paced only: send time − due time, this round
}

// stack is one set-up serving stack, ready to serve.
type stack struct {
	sp      spec
	models  []*causaliot.System
	trainNs []int64 // per causaliot.Train call
	host    causaliot.Host
	traced  *tracedHost
	fleet   *causaliot.Fleet
	workers []*causaliot.ClusterWorker
	ws      *causaliot.WireServer
	prods   []*producer

	wireBytes atomic.Int64
	nacks     atomic.Int64
	gaveUp    atomic.Int64
	serving   sync.WaitGroup
}

// buildStack runs one timed setup: train the models, start the host (and
// the cluster workers), register the homes, start the wire listener and
// open the producer sessions. It returns the wall time from start to
// ready-to-serve.
func buildStack(sp spec, t *traffic, homes []*home, rec *recorder, traced bool) (*stack, time.Duration, error) {
	start := time.Now()
	s := &stack{sp: sp}
	for _, log := range t.trainLogs {
		t0 := nanos()
		sys, err := causaliot.Train(t.devices, log, trainConfig)
		if err != nil {
			return nil, 0, fmt.Errorf("train: %w", err)
		}
		s.trainNs = append(s.trainNs, nanos()-t0)
		s.models = append(s.models, sys)
	}
	if sp.cluster {
		remotes := make([]causaliot.RemoteShardConfig, 2)
		for i := range remotes {
			cw, err := causaliot.NewClusterWorker(causaliot.ClusterWorkerConfig{})
			if err != nil {
				s.close()
				return nil, 0, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cw.Close()
				s.close()
				return nil, 0, err
			}
			s.workers = append(s.workers, cw)
			s.serving.Add(1)
			go func() {
				defer s.serving.Done()
				_ = cw.Serve(ln) // returns nil on Close; any other error shows as a failed link
			}()
			remotes[i] = causaliot.RemoteShardConfig{Addr: ln.Addr().String()}
		}
		f, err := causaliot.NewCluster(causaliot.ClusterConfig{Workers: remotes})
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.fleet, s.host = f, f
	} else {
		s.host = causaliot.NewHub(causaliot.HubConfig{})
	}
	if traced {
		byName := make(map[string]*home, len(homes))
		for _, h := range homes {
			byName[h.name] = h
		}
		s.traced = &tracedHost{Host: s.host, rec: rec, homes: byName}
		s.host = s.traced
	}
	for _, h := range homes {
		if err := s.host.Register(h.name, s.models[h.model], causaliot.TenantOptions{}); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("register %s: %w", h.name, err)
		}
	}
	if sp.conns == 0 {
		for _, h := range homes {
			sink := func(ta causaliot.TenantAlarm) {
				now := nanos()
				h.receive(tenantAlarmRec(ta), now)
				if rec.on.Load() {
					if fired, ok := h.fired.get(ta.Seq); ok {
						rec.sample("wire.egress_ns", now-fired)
					}
				}
			}
			if err := s.host.SetAlarmRoute(h.name, sink); err != nil {
				s.close()
				return nil, 0, err
			}
		}
		return s, time.Since(start), nil
	}
	if err := s.startWire(homes, rec, traced); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *stack) startWire(homes []*home, rec *recorder, traced bool) error {
	ws, err := causaliot.NewWireServer(s.host, causaliot.WireConfig{})
	if err != nil {
		return err
	}
	s.ws = ws
	var ln net.Listener
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	addr := ln.Addr().String()
	if traced {
		ln = countingListener{Listener: ln, n: &s.wireBytes}
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = ws.Serve(ln) // returns nil on Close
	}()
	for i := 0; i < s.sp.conns; i++ {
		h := homes[i]
		t0 := nanos()
		sc, err := wire.OpenSession(wire.SessionConfig{
			Addr:    addr,
			Session: "perfbench-" + h.name,
			Client: wire.ClientConfig{
				Tenant: h.name,
				OnNack: func(n wire.Nack) {
					s.nacks.Add(1)
					h.skip(n.Seq)
				},
				OnAlarm: func(a wire.Alarm) {
					now := nanos()
					h.receive(wireAlarmRec(a), now)
					if rec.on.Load() {
						if fired, ok := h.fired.get(a.Seq); ok {
							rec.sample("wire.egress_ns", now-fired)
							rec.span(span{Name: "wire.egress", Parent: "host.detect", Home: h.name, Seq: a.Seq, Start: fired, End: now})
						}
					}
				},
			},
			OnStateChange: func(st wire.SessionState) {
				if st == wire.StateGaveUp {
					s.gaveUp.Add(1)
				}
			},
		})
		if err != nil {
			return fmt.Errorf("open session for %s: %w", h.name, err)
		}
		if traced {
			rec.sample("wire.open_ns", nanos()-t0)
		}
		s.prods = append(s.prods, &producer{home: h, sc: sc})
	}
	return nil
}

func tenantAlarmRec(ta causaliot.TenantAlarm) alarmRec {
	a := alarmRec{seq: ta.Seq, score: ta.Score}
	if ta.Alarm != nil {
		a.abrupt = ta.Alarm.Abrupt
		a.events = len(ta.Alarm.Events)
		if a.events > 0 {
			a.device, a.state = ta.Alarm.Events[0].Device, ta.Alarm.Events[0].State
		}
	}
	return a
}

func wireAlarmRec(wa wire.Alarm) alarmRec {
	a := alarmRec{seq: wa.Seq, score: wa.Score, abrupt: wa.Abrupt, events: len(wa.Events)}
	if a.events > 0 {
		a.device, a.state = wa.Events[0].Device, int(wa.Events[0].State)
	}
	return a
}

// processed reports how many offered events the host has decided.
func (s *stack) processed() uint64 { return s.host.Stats().Total.Processed }

// close tears the stack down in dependency order and waits for every
// serving goroutine: producers say Bye, the wire front end stops, the
// host drains, the workers stop.
func (s *stack) close() error {
	var errs []error
	for _, p := range s.prods {
		errs = append(errs, p.sc.Close())
	}
	if s.ws != nil {
		errs = append(errs, s.ws.Close())
	}
	if s.host != nil {
		errs = append(errs, s.host.Close())
	}
	for _, w := range s.workers {
		errs = append(errs, w.Close())
	}
	s.serving.Wait()
	return errors.Join(errs...)
}

// layerTimes holds the traced run's per-layer training timings: each
// training layer timed through its own public function on the same log
// causaliot.Train sees, with Train's configuration.
type layerTimes struct {
	preprocessNs, mineNs, thresholdNs int64
}

func timeTrainingLayers(t *traffic) (layerTimes, error) {
	var lt layerTimes
	for _, log := range t.trainLogs {
		internal := make(event.Log, len(log))
		for i, e := range log {
			internal[i] = event.Event{Timestamp: e.Time, Device: e.Device, Value: e.Value}
		}
		pre, err := preprocess.New(t.testbed.Devices, preprocess.Config{
			MaxDuration: preprocess.DefaultMaxDuration,
			TauOverride: trainConfig.Tau,
		})
		if err != nil {
			return lt, err
		}
		t0 := nanos()
		res, err := pre.Process(internal)
		if err != nil {
			return lt, err
		}
		t1 := nanos()
		miner := pc.NewMiner(pc.Config{Alpha: pc.DefaultAlpha, MaxCondSize: 3, MinObsPerDOF: 5, MaxParents: 8})
		graph, _, _, err := miner.Mine(res.Series, res.Tau, 0.01)
		if err != nil {
			return lt, err
		}
		t2 := nanos()
		if _, err := monitor.Threshold(graph, res.Series, monitor.DefaultQuantile); err != nil {
			return lt, err
		}
		t3 := nanos()
		lt.preprocessNs += t1 - t0
		lt.mineNs += t2 - t1
		lt.thresholdNs += t3 - t2
	}
	return lt, nil
}
