package causaliot

import (
	"reflect"
	"testing"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// TestConvertAlarmAllocs pins the facade's alarm conversion at three
// allocations for a chain of any length (the alarm, its events, one array
// all the contexts share), and checks that each context still comes out
// name-sorted and confined to its own window of that array.
func TestConvertAlarmAllocs(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 3})
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.graph.Registry
	presence, _ := reg.Index("presence")
	light, _ := reg.Index("light")
	meter, _ := reg.Index("meter")
	ev := func(dev int, causes ...dig.Node) monitor.AnomalousEvent {
		vals := make([]int, len(causes))
		for i := range vals {
			vals[i] = i % 2
		}
		return monitor.AnomalousEvent{Step: timeseries.Step{Device: dev, Value: 1}, Score: 0.9,
			Causes: causes, CauseValues: vals}
	}
	alarm := &monitor.Alarm{Events: []monitor.AnomalousEvent{
		ev(light, dig.Node{Device: presence, Lag: 2}, dig.Node{Device: meter, Lag: 1}, dig.Node{Device: presence, Lag: 1}),
		ev(meter),
		ev(presence, dig.Node{Device: light, Lag: 1}),
	}}
	out := mon.convertAlarm(alarm, 7, 0.9)
	want := [][]string{{"meter@t-1", "presence@t-1", "presence@t-2"}, nil, {"light@t-1"}}
	for i, e := range out.Events {
		var names []string
		for _, c := range e.Context {
			names = append(names, c.Name)
		}
		if !reflect.DeepEqual(names, want[i]) {
			t.Errorf("event %d context %v, want %v", i, names, want[i])
		}
		if cap(e.Context) != len(e.Context) {
			t.Errorf("event %d context has room past its own entries (len %d cap %d)", i, len(e.Context), cap(e.Context))
		}
	}
	if out.Events[1].Context != nil {
		t.Errorf("an event without causes has a non-nil context")
	}
	if n := testing.AllocsPerRun(100, func() { mon.convertAlarm(alarm, 7, 0.9) }); n > 3 {
		t.Errorf("convertAlarm: %v allocs, want at most 3", n)
	}
}
