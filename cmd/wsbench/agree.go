package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the bench reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeMode runs the untraced set twice and fails if any end-to-end
// metric on any workload differs between the two sets, in either
// direction, by more than its own bound.
func agreeMode(ctx context.Context, root string, seed int64, cfg *runConfig) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		return 1
	}
	cfg.trace = false
	var sets [2][]*result
	for i := range sets {
		if sets[i], err = runSet(ctx, seed, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	code := 0
	for w := range sets[0] {
		a, b := sets[0][w], sets[1][w]
		for _, r := range []*result{a, b} {
			printNotes(r)
			if exitCode(r) != 0 {
				code = 1
			}
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			d := worseBy(va, vb, m.Better)
			if d < 0 {
				d = worseBy(vb, va, m.Better)
			}
			verdict := "agree"
			if d > m.Bound {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("%-22s %-24s %14.4f %14.4f  differ %5.1f%%  bound %4.0f%%  %s\n", a.Workload, m.Name, va, vb, d*100, m.Bound*100, verdict)
		}
	}
	return code
}
