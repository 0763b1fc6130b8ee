package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeConfig builds the real broker once per test binary and shapes a run
// of about a second, so every workload's main path is covered quickly.
func smokeConfig(t *testing.T) *runConfig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildBroker(context.Background(), root, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultRunConfig(bin, dir, 1.5)
	cfg.setupRepeats, cfg.bursts, cfg.ladderCalls = 1, 2, 20
	cfg.trace, cfg.traceOut = true, filepath.Join(dir, "trace.json")
	return cfg
}

// Every workload, against the real binary, traced: the oracle finds
// nothing, every metric BENCHMARK.json names is reported, spans are
// written, and neither the broker nor its data directory survives.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real broker")
	}
	cfg := smokeConfig(t)
	root, _ := repoRoot()
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		// A quarter of the pinned rate: the smoke covers the path, and must
		// hold on a slow machine and under the race detector, where the
		// bench's own sinks would fall behind the real rate.
		spec := *w
		spec.ratePubPerS /= 4
		res, err := runWorkload(context.Background(), &spec, 7, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Verdict.got != res.Verdict.expected || res.Verdict.expected == 0 {
			t.Errorf("%s: correct %v, failed %d of %d, verdict %+v, notes %v", spec.name, res.Correct, res.Failed, res.Attempted, res.Verdict, res.Notes)
		}
		for _, m := range bf.EndToEnd {
			if v, ok := res.EndToEnd[m.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive figure", spec.name, m.Name, v.Value)
			}
		}
		for _, m := range bf.PerLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", spec.name, m.Name)
			}
		}
		if len(res.PerLayer) != len(bf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json names %d", spec.name, len(res.PerLayer), len(bf.PerLayer))
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		raw, err := contractLine(res, false)
		if err == nil {
			err = json.Unmarshal([]byte(raw), &line)
		}
		if err != nil || line.Attempted != res.Attempted || len(line.Metrics) != len(bf.EndToEnd) {
			t.Errorf("%s: contract line %s: %v", spec.name, raw, err)
		}
		spans, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		var tr struct{ Spans []span }
		if err := json.Unmarshal(spans, &tr); err != nil || len(tr.Spans) == 0 {
			t.Errorf("%s: trace file holds %d spans (%v)", spec.name, len(tr.Spans), err)
		}
		names := map[string]bool{}
		for _, s := range tr.Spans {
			names[strings.SplitN(s.Name, ":", 2)[0]] = true
		}
		for _, want := range []string{"publish", "receipt", "ladder.publish", "soap.parse"} {
			if !names[want] {
				t.Errorf("%s: no %q span in the trace", spec.name, want)
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(cfg.tmpRoot, "wsbench-*"))
	if len(left) != 0 {
		t.Errorf("temp trees left behind: %v", left)
	}
}

// BENCHMARK.json and the code must name the same metrics and workloads.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range bf.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics {
		want = append(want, m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("per_layer in BENCHMARK.json:\n%s\nin the code:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = got[:0]
	for _, m := range bf.EndToEnd {
		got = append(got, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(endToEndNames, " ") {
		t.Errorf("end_to_end in BENCHMARK.json %v, in the code %v", got, endToEndNames)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// A broker that never becomes healthy is killed, and its last stderr lines
// come back in the error.
func TestStartBrokerReportsAnUnhealthyChild(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "fake-broker")
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho 'listen: address in use' >&2\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err := startBroker(context.Background(), script, dir, &workloadSpec{name: "x", durable: true}, 200*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "address in use") || !strings.Contains(err.Error(), "/healthz") {
		t.Errorf("error %v, want the health timeout with the child's stderr", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("gave up after %v", d)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wsbench-log-*")); len(left) != 0 {
		t.Errorf("data dir left behind: %v", left)
	}
}
