package main

import (
	"fmt"
	"time"

	"github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/event"
	"github.com/causaliot/causaliot/internal/sim"
)

const (
	// trainDays sizes every model's training log: 14 simulated days
	// (~36k events) makes pc mining the bulk of setup_s and long enough
	// to time steadily.
	trainDays = 14
	// runtimeDays sizes the runtime stream: one simulated day, replayed in
	// a loop with a time shift so event time never runs backwards.
	runtimeDays = 1
)

// traffic is everything a run feeds the program, synthesized from the seed
// before any clock starts: a training log per model and a runtime day per
// home. A day per home, rather than one for all, averages the seed-to-seed
// swing in alarm rate — which moves allocations and CPU per event — over
// every home.
type traffic struct {
	testbed   *sim.Testbed
	devices   []causaliot.Device
	trainLogs [][]causaliot.Event
	days      [][]causaliot.Event
}

func synthesizeTraffic(seed int64, models, homes int) (*traffic, error) {
	tb := sim.ContextActLike()
	devices, err := publicDevices(tb)
	if err != nil {
		return nil, err
	}
	t := &traffic{testbed: tb, devices: devices,
		trainLogs: make([][]causaliot.Event, models), days: make([][]causaliot.Event, homes)}
	for m := range t.trainLogs {
		// Distinct training seeds give the models distinct mined graphs
		// (and so distinct fingerprints in the model cache).
		if t.trainLogs[m], err = simulate(tb, seed*1000+int64(m), trainDays); err != nil {
			return nil, err
		}
	}
	for h := range t.days {
		if t.days[h], err = simulate(tb, seed*1000+500+int64(h), runtimeDays); err != nil {
			return nil, err
		}
		if len(t.days[h]) == 0 {
			return nil, fmt.Errorf("seed %d synthesized an empty runtime day", seed)
		}
	}
	return t, nil
}

func simulate(tb *sim.Testbed, seed int64, days int) ([]causaliot.Event, error) {
	s, err := sim.NewSimulator(tb, sim.Config{Seed: seed, Days: days})
	if err != nil {
		return nil, err
	}
	log, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := make([]causaliot.Event, len(log))
	for i, e := range log {
		out[i] = causaliot.Event{Time: e.Timestamp, Device: e.Device, Value: e.Value}
	}
	return out, nil
}

// publicDevices converts a testbed inventory to the public API's device
// descriptions.
func publicDevices(tb *sim.Testbed) ([]causaliot.Device, error) {
	out := make([]causaliot.Device, 0, len(tb.Devices))
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

// homeStream is one home's runtime stream: its day looped with a time
// shift per lap. Event n (1-based) carries Seq n, so the stream is a pure
// function of the sequence number and the reference replay regenerates
// exactly what was sent.
type homeStream struct {
	day  []causaliot.Event
	span time.Duration
}

func (s homeStream) event(seq uint64) causaliot.Event {
	i := int(seq - 1)
	e := s.day[i%len(s.day)]
	e.Time = e.Time.Add(time.Duration(i/len(s.day)) * s.span)
	e.Seq = seq
	return e
}

func (t *traffic) stream(h int) homeStream {
	day := t.days[h]
	return homeStream{day: day, span: day[len(day)-1].Time.Sub(day[0].Time) + time.Minute}
}
