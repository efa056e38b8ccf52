package causaliot

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tau() != sys.Tau() {
		t.Errorf("tau %d != %d", loaded.Tau(), sys.Tau())
	}
	if loaded.Threshold() != sys.Threshold() {
		t.Errorf("threshold %v != %v", loaded.Threshold(), sys.Threshold())
	}
	// Interactions identical.
	a, b := sys.Interactions(), loaded.Interactions()
	if len(a) != len(b) {
		t.Fatalf("interaction count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("interaction %d: %v != %v", i, a[i], b[i])
		}
	}
	// Likelihood queries agree exactly (counts survive the round trip).
	for _, ctx := range []map[string]int{
		{"presence": 1, "light": 0},
		{"presence": 0, "light": 0},
		{"presence": 1, "light": 1},
	} {
		pa, err := sys.Likelihood("light", 1, ctx)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := loaded.Likelihood("light", 1, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pa-pb) > 1e-12 {
			t.Errorf("likelihood %v != %v for %v", pa, pb, ctx)
		}
	}
	// A loaded system detects the same ghost event.
	mon, err := loaded.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	det, err := mon.ObserveEvent(Event{Time: t0, Device: "light", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.Alarm == nil {
		t.Error("loaded system misses the ghost activation")
	}
}

// TestLoadIgnoresRetiredKernelKey pins compatibility with models saved
// while Config still carried a CI-test counting kernel choice: a config
// with "Kernel":1 (the old scalar kernel) loads, serves the detections a
// fresh save of the same system serves, and saves again without the key.
func TestLoadIgnoresRetiredKernelKey(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2, KMax: 2})
	var fresh bytes.Buffer
	if err := sys.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fresh.String(), "Kernel") {
		t.Fatal("a fresh save still writes a Kernel key")
	}
	old := strings.Replace(fresh.String(), `"config": {`, `"config": {
    "Kernel": 1,`, 1)
	if old == fresh.String() {
		t.Fatal("saved model has no config object to extend")
	}
	legacy, err := Load(strings.NewReader(old))
	if err != nil {
		t.Fatalf("model with a Kernel key refused: %v", err)
	}
	current, err := Load(bytes.NewReader(fresh.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lm, err := legacy.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := current.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	stream := append(trainingLog(40, 23),
		Event{Time: t0.Add(9 * time.Hour), Device: "light", Value: 1},
		Event{Time: t0.Add(9*time.Hour + time.Second), Device: "light", Value: 0},
		Event{Time: t0.Add(9*time.Hour + 2*time.Second), Device: "light", Value: 1},
	)
	alarms := 0
	for i, e := range stream {
		ld, lErr := lm.ObserveEvent(e)
		cd, cErr := cm.ObserveEvent(e)
		if (lErr == nil) != (cErr == nil) || !reflect.DeepEqual(ld, cd) {
			t.Fatalf("event %d: legacy %+v/%v, current %+v/%v", i, ld, lErr, cd, cErr)
		}
		if cd.Alarm != nil {
			alarms++
		}
	}
	if alarms == 0 {
		t.Error("stream raised no alarm; the comparison covers no detection")
	}
	var resaved bytes.Buffer
	if err := legacy.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), fresh.Bytes()) {
		t.Errorf("re-saved legacy model differs from a fresh save:\n%s\nwant:\n%s", resaved.String(), fresh.String())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "not json at all",
		"wrong version": `{"version": 99}`,
		"no devices":    `{"version": 1, "devices": []}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(in)); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestLoadRejectsTamperedModel(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the threshold out of range.
	tampered := strings.Replace(buf.String(), `"scoreThreshold"`, `"scoreThreshold": 7, "x"`, 1)
	if _, err := Load(strings.NewReader(tampered)); err == nil {
		t.Error("tampered threshold accepted")
	}
}

func TestExtendRecalibrates(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	before := sys.Threshold()
	// Extension: the same behaviour pattern continues.
	ext := trainingLog(120, 9)
	// Shift timestamps after the original log.
	for i := range ext {
		ext[i].Time = ext[i].Time.Add(90 * 24 * time.Hour)
	}
	if err := sys.Extend(ext); err != nil {
		t.Fatal(err)
	}
	after := sys.Threshold()
	if after <= 0 || after > 1 {
		t.Errorf("threshold after extend = %v", after)
	}
	_ = before
	// The extended system still detects ghosts.
	mon, err := sys.NewMonitor()
	if err != nil {
		t.Fatal(err)
	}
	// Ensure light is off in the tracked state before the ghost.
	if _, err := mon.ObserveEvent(Event{Time: t0, Device: "presence", Value: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObserveEvent(Event{Time: t0.Add(time.Second), Device: "light", Value: 0}); err != nil {
		t.Fatal(err)
	}
	det, err := mon.ObserveEvent(Event{Time: t0.Add(time.Hour), Device: "light", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.Alarm == nil {
		t.Errorf("extended system misses the ghost (score %v)", det.Score)
	}
}

func TestExtendValidation(t *testing.T) {
	sys := mustTrain(t, Config{Tau: 2})
	if err := sys.Extend(nil); err == nil {
		t.Error("empty extension accepted")
	}
	if err := sys.Extend([]Event{{Time: t0, Device: "ghost", Value: 1}}); err == nil {
		t.Error("unknown device accepted")
	}
}
