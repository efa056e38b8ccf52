package causaliot

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeedModel trains a small system once and returns its serialized form,
// the honest starting point for mutation-based fuzzing.
func fuzzSeedModel(f *testing.F) []byte {
	f.Helper()
	sys, err := Train(testDevices(), trainingLog(120, 1), Config{Tau: 2, KMax: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad is the error-never-panic contract for model deserialization: no
// input — valid, truncated, bit-flipped, or hostile — may crash Load. A
// model that does load must also survive starting a monitor and observing
// an event, since a Load that accepts a corrupt model only to blow up at
// serving time is the same bug with a delay.
func FuzzLoad(f *testing.F) {
	valid := fuzzSeedModel(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])      // truncated mid-document
	f.Add(valid[:len(valid)-1])      // missing the final byte
	f.Add([]byte{})                  // empty input
	f.Add([]byte("{}"))              // empty object
	f.Add([]byte(`{"version":1}`))   // right version, nothing else
	f.Add([]byte(`{"version":99}`))  // future version
	f.Add([]byte("not json at all")) // garbage
	f.Add(bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(valid, []byte(`"scoreThreshold"`), []byte(`"scoreThreshold_"`), 1))
	f.Add([]byte(strings.Replace(string(valid), `"tau"`, `"tau_"`, 1)))
	corrupt := bytes.Replace(valid, []byte("presence"), []byte("presence\x00"), 1)
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		mon, err := sys.NewMonitor()
		if err != nil {
			t.Fatalf("loaded model cannot start a monitor: %v", err)
		}
		if _, err := mon.ObserveEvent(Event{Device: "presence", Value: 1}); err != nil {
			t.Fatalf("loaded model cannot observe: %v", err)
		}
	})
}

// FuzzRestoreMonitor extends the contract to the checkpoint envelope: a
// corrupted checkpoint must be rejected with an error, never panic, and
// never yield a monitor that crashes on its first event.
func FuzzRestoreMonitor(f *testing.F) {
	sys, err := Train(testDevices(), trainingLog(120, 1), Config{Tau: 2, KMax: 2})
	if err != nil {
		f.Fatal(err)
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range trainingLog(20, 7) {
		if _, err := mon.ObserveEvent(e); err != nil {
			f.Fatalf("seed event %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := mon.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add(bytes.Replace(valid, []byte(`"Seq"`), []byte(`"Seq_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"Window"`), []byte(`"Window_"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := sys.RestoreMonitor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := restored.ObserveEvent(Event{Device: "light", Value: 1}); err != nil {
			t.Fatalf("restored monitor cannot observe: %v", err)
		}
	})
}

// FuzzRestoreLifecycle covers the lifecycle block of the checkpoint
// envelope: accumulator counts, sliding refit log, and scan phase. A
// hostile checkpoint must be rejected with an error — never a panic, never
// an OOM from an absurd refit window, and never an adaptive monitor whose
// first observation crashes or whose evidence disagrees with its window.
func FuzzRestoreLifecycle(f *testing.F) {
	sys, err := Train(testDevices(), trainingLog(120, 1), Config{Tau: 2, KMax: 2})
	if err != nil {
		f.Fatal(err)
	}
	mon, err := sys.NewMonitor()
	if err != nil {
		f.Fatal(err)
	}
	if err := mon.EnableAdaptive(AdaptConfig{ScanEvery: 64, RefitWindow: 128}); err != nil {
		f.Fatal(err)
	}
	for i, e := range trainingLog(20, 7) {
		if _, err := mon.ObserveEvent(e); err != nil {
			f.Fatalf("seed event %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := mon.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"lifecycle"`), []byte(`"lifecycle_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"accumulator"`), []byte(`"accumulator_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"folded"`), []byte(`"folded_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"base"`), []byte(`"base_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"log"`), []byte(`"log_"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"sinceScan"`), []byte(`"sinceScan":-1,"x"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"pending"`), []byte(`"pending":99,"x"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"RefitWindow"`), []byte(`"RefitWindow":1073741824,"x"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"total"`), []byte(`"total":[1e308],"x"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"device"`), []byte(`"device":-7,"x"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := sys.RestoreMonitor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := restored.ObserveEvent(Event{Device: "light", Value: 1}); err != nil {
			t.Fatalf("restored monitor cannot observe: %v", err)
		}
		if restored.Adaptive() {
			if _, ok := restored.LifecycleStats(); !ok {
				t.Fatal("adaptive monitor without lifecycle stats")
			}
		}
	})
}
