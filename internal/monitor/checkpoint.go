package monitor

import (
	"fmt"
	"math"

	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/timeseries"
)

// Checkpoint is the full serializable runtime state of a Detector: the
// phantom window cells, the partially tracked anomaly chain W, and the
// stream position. Restoring a checkpoint into a detector built over the
// same graph, threshold, and kmax resumes the stream bit-for-bit — the
// restored detector's subsequent scores and alarms are identical to an
// uninterrupted run.
//
// A Checkpoint captures runtime state only; the model (graph, CPTs,
// threshold) lives in the saved-model envelope and is restored separately.
type Checkpoint struct {
	// Tau and NumDevices pin the window shape the checkpoint was taken
	// under; Restore rejects a checkpoint whose shape does not match the
	// detector's graph.
	Tau        int
	NumDevices int
	// Window holds the (Tau+1)×NumDevices phantom window cells, oldest
	// state first (timeseries.Window snapshot order).
	Window []int
	// Seq is the stream position: the number of events the detector has
	// processed, including skipped duplicates.
	Seq int
	// SkipDuplicates records the duplicate-skip mode the stream ran under.
	SkipDuplicates bool
	// Chain is the pending anomaly list W (deep copy).
	Chain []AnomalousEvent
}

// Checkpoint snapshots the detector's runtime state. The result shares no
// memory with the detector and is safe to serialize or retain across
// further ProcessStep calls.
func (d *Detector) Checkpoint() Checkpoint {
	return Checkpoint{
		Tau:            d.Tau(),
		NumDevices:     d.numDevices,
		Window:         d.win.Snapshot(),
		Seq:            d.seq,
		SkipDuplicates: d.SkipDuplicates,
		Chain:          cloneChain(d.w),
	}
}

// Restore replaces the detector's runtime state with a checkpoint taken
// from a detector over the same graph shape: window cells, pending chain,
// duplicate-skip mode, and stream position. The detector's graph,
// threshold, and kmax are untouched — restore a checkpoint into a detector
// built from the same trained model to resume bit-for-bit.
func (d *Detector) Restore(c Checkpoint) error {
	if c.Tau != d.Tau() {
		return fmt.Errorf("monitor: checkpoint tau %d does not match detector tau %d", c.Tau, d.Tau())
	}
	if c.NumDevices != d.numDevices {
		return fmt.Errorf("monitor: checkpoint covers %d devices, detector has %d", c.NumDevices, d.numDevices)
	}
	if c.Seq < 0 {
		return fmt.Errorf("monitor: negative checkpoint position %d", c.Seq)
	}
	if len(c.Window) != (c.Tau+1)*c.NumDevices {
		return fmt.Errorf("monitor: checkpoint window has %d cells, want %d", len(c.Window), (c.Tau+1)*c.NumDevices)
	}
	for i, v := range c.Window {
		if v != 0 && v != 1 {
			return fmt.Errorf("monitor: non-binary checkpoint window cell %d at index %d", v, i)
		}
	}
	if err := validateChain(c.Chain, c.Tau, c.NumDevices, c.Seq); err != nil {
		return err
	}
	win, err := timeseries.RestoreWindow(c.Tau, c.NumDevices, c.Window)
	if err != nil {
		return err
	}
	d.win = win
	d.w = cloneChain(c.Chain)
	d.seq = c.Seq
	d.SkipDuplicates = c.SkipDuplicates
	return nil
}

// validateChain rejects chain entries that could not have been produced by
// a detector over a (tau, numDevices)-shaped graph at position seq.
func validateChain(chain []AnomalousEvent, tau, numDevices, seq int) error {
	for i, ev := range chain {
		if ev.Step.Device < 0 || ev.Step.Device >= numDevices {
			return fmt.Errorf("monitor: chain event %d device index %d out of range", i, ev.Step.Device)
		}
		if ev.Step.Value != 0 && ev.Step.Value != 1 {
			return fmt.Errorf("monitor: chain event %d non-binary value %d", i, ev.Step.Value)
		}
		if ev.Seq < 1 || ev.Seq > seq {
			return fmt.Errorf("monitor: chain event %d position %d outside [1,%d]", i, ev.Seq, seq)
		}
		if math.IsNaN(ev.Score) || ev.Score < 0 || ev.Score > 1 {
			return fmt.Errorf("monitor: chain event %d score %v outside [0,1]", i, ev.Score)
		}
		if len(ev.Causes) != len(ev.CauseValues) {
			return fmt.Errorf("monitor: chain event %d has %d causes but %d cause values", i, len(ev.Causes), len(ev.CauseValues))
		}
		for k, c := range ev.Causes {
			if c.Device < 0 || c.Device >= numDevices {
				return fmt.Errorf("monitor: chain event %d cause %d device index %d out of range", i, k, c.Device)
			}
			if c.Lag < 1 || c.Lag > tau {
				return fmt.Errorf("monitor: chain event %d cause %d lag %d outside [1,%d]", i, k, c.Lag, tau)
			}
			if v := ev.CauseValues[k]; v != 0 && v != 1 {
				return fmt.Errorf("monitor: chain event %d non-binary cause value %d", i, v)
			}
		}
	}
	return nil
}

// cloneChain deep-copies the anomaly list, including each entry's cause
// slices, so checkpoints never alias live detector state.
func cloneChain(chain []AnomalousEvent) []AnomalousEvent {
	if len(chain) == 0 {
		return nil
	}
	out := make([]AnomalousEvent, len(chain))
	for i, ev := range chain {
		out[i] = ev
		if len(ev.Causes) > 0 {
			out[i].Causes = make([]dig.Node, len(ev.Causes))
			copy(out[i].Causes, ev.Causes)
		}
		if len(ev.CauseValues) > 0 {
			out[i].CauseValues = make([]int, len(ev.CauseValues))
			copy(out[i].CauseValues, ev.CauseValues)
		}
	}
	return out
}
