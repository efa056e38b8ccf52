// Package event defines the device and event model shared by the whole
// system: device attributes and their value classes (paper §II-A and
// Table I), device events as reported to the IoT platform, and event logs
// with the helpers the preprocessor and simulator need.
package event

import (
	"fmt"
	"sort"
	"time"
)

// Class categorizes a device attribute's value type (paper §V-A, "Type
// unification"). Binary states carry ON/OFF semantics; responsive numeric
// states are zero when idle and positive when in use; ambient numeric states
// are continuous environmental measurements.
type Class int

// Value classes of device states.
const (
	Binary Class = iota + 1
	ResponsiveNumeric
	AmbientNumeric
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Binary:
		return "binary"
	case ResponsiveNumeric:
		return "responsive-numeric"
	case AmbientNumeric:
		return "ambient-numeric"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Attribute describes a virtual device attribute abstracted by the IoT
// platform (paper §II-A), e.g. a presence sensor or a dimmer.
type Attribute struct {
	// Name is the attribute's identifier, e.g. "switch".
	Name string
	// Abbrev is the short label used in the paper's tables, e.g. "S".
	Abbrev string
	// Class is the attribute's value class.
	Class Class
	// Description explains what state changes mean.
	Description string
}

// The attribute catalog of Table I. Additional attributes (for the
// industrial and water-grid examples) can be declared by the caller; nothing
// in the pipeline depends on this fixed set.
var (
	Switch           = Attribute{Name: "switch", Abbrev: "S", Class: Binary, Description: "change of actuators"}
	PresenceSensor   = Attribute{Name: "presence", Abbrev: "PE", Class: Binary, Description: "movement detection"}
	ContactSensor    = Attribute{Name: "contact", Abbrev: "C", Class: Binary, Description: "door/window state"}
	Dimmer           = Attribute{Name: "dimmer", Abbrev: "D", Class: ResponsiveNumeric, Description: "change of lights"}
	WaterMeter       = Attribute{Name: "water-meter", Abbrev: "W", Class: ResponsiveNumeric, Description: "water usage"}
	PowerSensor      = Attribute{Name: "power", Abbrev: "P", Class: ResponsiveNumeric, Description: "appliance usage"}
	BrightnessSensor = Attribute{Name: "brightness", Abbrev: "B", Class: AmbientNumeric, Description: "luminosity level"}
)

// Device is an IoT device bound to the platform.
type Device struct {
	// Name uniquely identifies the device, e.g. "D_bathroom".
	Name string
	// Attribute is the virtual attribute the platform abstracts for it.
	Attribute Attribute
	// Location is the installation location, e.g. "bathroom".
	Location string
}

// Validate checks the device definition.
func (d Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("event: device with empty name (location %q)", d.Location)
	}
	if d.Attribute.Name == "" {
		return fmt.Errorf("event: device %q has no attribute", d.Name)
	}
	if d.Attribute.Class < Binary || d.Attribute.Class > AmbientNumeric {
		return fmt.Errorf("event: device %q has invalid class %d", d.Name, d.Attribute.Class)
	}
	return nil
}

// Event is a device state report in the platform's canonical format
// (timestamp, device name, installation location, device state) — paper
// §II-A. For binary attributes Value is 0 or 1; for numeric attributes it is
// the raw reading.
type Event struct {
	Timestamp time.Time
	Device    string
	Location  string
	Value     float64
}

// Report is one device state report as it reaches the serving stack: a
// device, a value and a timestamp (paper §II-A), plus an optional
// producer-assigned sequence number. It is the one event type from socket to
// detector: the public API, the tenant hub and the wire protocol (which the
// cluster link speaks too) all alias it, so a batch crosses every layer as
// it is.
type Report struct {
	// Seq is an optional producer-assigned sequence number. Detection does
	// not interpret it; it is echoed back in TenantAlarm.Seq (and over the
	// network in wire Nack and alarm frames) so producers can correlate alarms
	// and refusals with the events that caused them. Zero means unassigned.
	Seq    uint64
	Time   time.Time
	Device string
	Value  float64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %s@%s=%g", e.Timestamp.Format(time.RFC3339), e.Device, e.Location, e.Value)
}

// Log is an ordered sequence of device events.
type Log []Event

// SortByTime orders the log by ascending timestamp, preserving the relative
// order of simultaneous events.
func (l Log) SortByTime() {
	sort.SliceStable(l, func(i, j int) bool { return l[i].Timestamp.Before(l[j].Timestamp) })
}

// Sorted reports whether the log is in ascending timestamp order.
func (l Log) Sorted() bool {
	for i := 1; i < len(l); i++ {
		if l[i].Timestamp.Before(l[i-1].Timestamp) {
			return false
		}
	}
	return true
}

// AverageInterval returns the mean time between consecutive events (the
// quantity v used by the preprocessor to pick the maximum lag τ = d/v,
// paper §V-A). It returns 0 for logs with fewer than two events.
func (l Log) AverageInterval() time.Duration {
	if len(l) < 2 {
		return 0
	}
	span := l[len(l)-1].Timestamp.Sub(l[0].Timestamp)
	return span / time.Duration(len(l)-1)
}

// Devices returns the set of device names appearing in the log, sorted.
func (l Log) Devices() []string {
	seen := make(map[string]struct{})
	for _, e := range l {
		seen[e.Device] = struct{}{}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Filter returns the events for which keep returns true, preserving order.
func (l Log) Filter(keep func(Event) bool) Log {
	out := make(Log, 0, len(l))
	for _, e := range l {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
