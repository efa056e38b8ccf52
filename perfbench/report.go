package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func sortedInt64(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound maps the rounds selected by keep through f.
func perRound(rs []round, keep func(round) bool, f func(round) float64) []float64 {
	var out []float64
	for _, r := range rs {
		if keep(r) {
			out = append(out, f(r))
		}
	}
	return out
}

// budgetRow is one line of the per-event budget.
type budgetRow struct {
	name string
	ns   float64
	how  string
}

// printBudget writes the per-event budget: what each layer costs per
// served event beside the measured CPU per event, with whatever the rows
// do not explain as its own row.
func printBudget(w io.Writer, workload string, cpuNs float64, rows []budgetRow) {
	fmt.Fprintf(w, "budget %s (per served event, traced rounds)\n", workload)
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %10.1f ns  %s\n", r.name, r.ns, r.how)
		sum += r.ns
	}
	fmt.Fprintf(w, "  %-26s %10.1f ns  %s\n", "unexplained", cpuNs-sum, "cpu per event minus the rows above (negative: wall-time rows include waits)")
	fmt.Fprintf(w, "  %-26s %10.1f ns  %s\n", "cpu_per_event", cpuNs, "process user+sys CPU / events, all goroutines")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 40))
}
