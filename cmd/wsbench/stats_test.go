package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileHandComputed(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := quantile(v, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	// Position 0.5·(4−1) = 1.5: halfway between the second and third value.
	if got := quantile([]float64{10, 20, 40, 80}, 0.5); !near(got, 30) {
		t.Errorf("even-length median = %v, want 30", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample = %v, want NaN so a missing sample never reads as a fast one", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an unsorted slice = %v, want 5", got)
	}
}

// One stalled window must own one window's p99, not the figure: with four
// windows the median of the per-window p99s ignores the single outlier.
func TestWindowedQuantileOneStallCannotOwnTheFigure(t *testing.T) {
	const width = 100
	var samples []timed
	for w := int64(0); w < 4; w++ {
		for i := int64(0); i < 100; i++ {
			ms := float64(i + 1) // 1..100 in every window: p99 = 99.01
			if w == 2 {
				ms *= 50 // the stall
			}
			samples = append(samples, timed{due: 1000 + w*width + i, ms: ms})
		}
	}
	// Samples outside [start, start+4·width) are not counted.
	samples = append(samples, timed{due: 999, ms: 1e9}, timed{due: 1400, ms: 1e9})
	got := windowedQuantile(samples, 1000, width, 4, 0.99)
	// Per-window p99s: 99.01, 99.01, 4950.5, 99.01 → median 99.01.
	if !near(got, 99.01) {
		t.Errorf("windowed p99 = %v, want 99.01", got)
	}
	// An empty window is left out instead of counting as zero.
	if got := windowedQuantile([]timed{{due: 5, ms: 3}, {due: 7, ms: 5}}, 0, 10, 4, 0.5); !near(got, 4) {
		t.Errorf("windowed median with three empty windows = %v, want 4", got)
	}
	if got := windowedQuantile(nil, 0, 0, 4, 0.5); !math.IsNaN(got) {
		t.Errorf("zero-width windows = %v, want NaN", got)
	}
}
