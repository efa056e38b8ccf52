package event

import (
	"fmt"
	"strconv"
	"strings"
)

// ContextEntry is one cause of an anomalous event's interaction context:
// the cause rendered as "device@t-lag" and its state at the event.
type ContextEntry struct {
	Name  string
	State int
}

// String renders the entry as "name:state".
func (c ContextEntry) String() string { return c.Name + ":" + strconv.Itoa(c.State) }

// AlarmEvent is one member of a reported anomaly chain.
type AlarmEvent struct {
	// Device and State describe the offending event.
	Device string
	State  int
	// Score is the anomaly score f(e, G, 𝒢) ∈ [0,1].
	Score float64
	// Context lists each cause with its state at the event, sorted by
	// Name — the information the paper reports for anomaly interpretation
	// and root-cause localization (§VI-C). The order is canonical: the
	// wire encodes it as is.
	Context []ContextEntry
}

// Alarm reports a detected anomaly: Events[0] is the contextual anomaly and
// any following entries are the collective anomaly chain that executed
// under the polluted context. It is the one alarm type from detector to
// socket: the public API, the wire protocol and the cluster link all alias
// it, so an alarm crosses every hop as it is.
type Alarm struct {
	// Seq is the producer-assigned sequence number of the event that
	// completed (or abruptly terminated) the chain; Score is that event's
	// anomaly score. Both are zero for an alarm raised by a Flush rather
	// than an event.
	Seq    uint64
	Score  float64
	Abrupt bool // the chain was cut short by another high-score event
	Events []AlarmEvent
}

// Collective reports whether the alarm includes a collective anomaly chain.
func (a *Alarm) Collective() bool { return len(a.Events) > 1 }

// Explanation renders the anomalous event the way the paper's detection
// examples read (§VI-C): what happened, how unlikely it was, and the
// interaction context that justifies the verdict — the information a user
// needs for anomaly interpretation and a security analyst needs for
// root-cause localization (e.g. excluding physical compromise when the
// causes point at remote control).
func (e AlarmEvent) Explanation() string {
	verb := "deactivation"
	if e.State == 1 {
		verb = "activation"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s had likelihood %.4g%% under its interaction context", e.Device, verb, 100*(1-e.Score))
	if len(e.Context) == 0 {
		b.WriteString(" (no mined causes — the event is judged by its marginal behaviour)")
		return b.String()
	}
	parts := make([]string, len(e.Context))
	for i, c := range e.Context {
		state := "off/low"
		if c.State == 1 {
			state = "on/high"
		}
		parts[i] = fmt.Sprintf("%s was %s", c.Name, state)
	}
	fmt.Fprintf(&b, ": %s", strings.Join(parts, ", "))
	return b.String()
}

// Explain renders the whole alarm: the contextual anomaly first, then any
// collective chain that executed under the polluted context.
func (a *Alarm) Explain() string {
	if a == nil || len(a.Events) == 0 {
		return "no anomaly"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "contextual anomaly: %s\n", a.Events[0].Explanation())
	if len(a.Events) > 1 {
		fmt.Fprintf(&b, "collective anomaly chain (%d events", len(a.Events)-1)
		if a.Abrupt {
			b.WriteString(", cut short by an abrupt event")
		}
		b.WriteString("):\n")
		for _, ev := range a.Events[1:] {
			verb := "deactivated"
			if ev.State == 1 {
				verb = "activated"
			}
			fmt.Fprintf(&b, "  %s %s following the seeded interaction execution (score %.4f)\n", ev.Device, verb, ev.Score)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
