package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two closest ranks (the "type 7"
// estimate: position q·(n−1)). An empty slice yields NaN so a missing
// sample can never read as a fast one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// timed is one latency sample tagged with the instant its message was due,
// both relative to the bench epoch.
type timed struct {
	due int64   // ns
	ms  float64 // latency in milliseconds
}

// windowedQuantile splits [start, start+n·width) into n windows by due
// time, takes the q-quantile inside each non-empty window and returns the
// median of those — so one stall owns one window, not the figure.
func windowedQuantile(samples []timed, start, width int64, n int, q float64) float64 {
	if width <= 0 || n <= 0 {
		return math.NaN()
	}
	wins := make([][]float64, n)
	for _, s := range samples {
		w := (s.due - start) / width
		if s.due < start || w >= int64(n) {
			continue
		}
		wins[w] = append(wins[w], s.ms)
	}
	var per []float64
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		per = append(per, quantile(w, q))
	}
	return median(per)
}
