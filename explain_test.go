package causaliot

import (
	"strings"
	"testing"
)

func TestExplanationRendersContext(t *testing.T) {
	ev := AnomalousEvent{
		Device: "light",
		State:  1,
		Score:  0.9998,
		Context: []ContextEntry{
			{Name: "dimmer@t-2", State: 1},
			{Name: "presence@t-1", State: 0},
		},
	}
	got := ev.Explanation()
	for _, want := range []string{"light activation", "0.02%", "presence@t-1 was off/low", "dimmer@t-2 was on/high"} {
		if !strings.Contains(got, want) {
			t.Errorf("explanation missing %q:\n%s", want, got)
		}
	}
}

func TestExplanationWithoutCauses(t *testing.T) {
	ev := AnomalousEvent{Device: "plug", State: 0, Score: 0.8}
	got := ev.Explanation()
	if !strings.Contains(got, "plug deactivation") || !strings.Contains(got, "no mined causes") {
		t.Errorf("explanation = %s", got)
	}
}

func TestAlarmExplain(t *testing.T) {
	if got := (*Alarm)(nil).Explain(); got != "no anomaly" {
		t.Errorf("nil alarm = %q", got)
	}
	a := &Alarm{
		Abrupt: true,
		Events: []AnomalousEvent{
			{Device: "light", State: 1, Score: 0.99, Context: []ContextEntry{{Name: "presence@t-1", State: 0}}},
			{Device: "heater", State: 1, Score: 0.01},
			{Device: "window", State: 1, Score: 0.02},
		},
	}
	got := a.Explain()
	for _, want := range []string{"contextual anomaly: light", "collective anomaly chain (2 events", "cut short", "heater activated", "window activated"} {
		if !strings.Contains(got, want) {
			t.Errorf("alarm explanation missing %q:\n%s", want, got)
		}
	}
}
