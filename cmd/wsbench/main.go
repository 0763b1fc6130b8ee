// Command wsbench is the end-to-end and per-layer benchmark of the shipped
// wsmessenger binary: it builds the broker, boots it as a child process
// on free loopback ports, drives it over real TCP and reports every
// metric named in BENCHMARK.json. See README.md in this directory.
//
//	go run ./cmd/wsbench --workload soap_push_fanout --seed 1 --seconds 20 --trace 0
//	go run ./cmd/wsbench -seed 1            # all four workloads, one JSON document
//	go run ./cmd/wsbench -seed 1 -trace 1   # the traced set: per-layer metrics and spans
//	go run ./cmd/wsbench -seed 1 -agree     # two untraced sets must agree within the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// buildDirName is where the bench keeps the broker binary, the data-dir
// temp trees and trace files, under the working directory and named in
// .gitignore: nothing is read or written outside the checkout.
const buildDirName = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all four, printed as one JSON document)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload run (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, 10 Hz /metrics sampler, spans, layer ladder")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (default "+buildDirName+"/trace-<workload>.json)")
	agree := flag.Bool("agree", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "wsbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buildDir := filepath.Join(root, buildDirName)
	bin, err := buildBroker(ctx, root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := defaultRunConfig(bin, buildDir, *seconds)
	cfg.trace = *trace != 0
	cfg.traceOut = *traceOut
	cfg.log = os.Stderr

	switch {
	case *agree:
		return agreeMode(ctx, root, *seed, cfg)
	case *workload != "":
		spec := workloadByName(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "wsbench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runWorkload(ctx, spec, *seed, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printNotes(res)
		line, err := contractLine(res, cfg.trace)
		if err != nil {
			// A figure with no samples behind it is NaN: no result is better
			// than one the driver would read as a number.
			fmt.Fprintln(os.Stderr, "wsbench:", err)
			return 1
		}
		fmt.Println(line)
		return exitCode(res)
	default:
		results, err := runSet(ctx, *seed, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		code := 0
		doc := map[string]any{
			"seed":    *seed,
			"traced":  cfg.trace,
			"network": "all traffic crosses the host loopback interface; broker and bench share the machine's cores",
		}
		wl := map[string]any{}
		for _, res := range results {
			printNotes(res)
			wl[res.Workload] = fullDoc(res)
			if c := exitCode(res); c != 0 {
				code = c
			}
		}
		doc["workloads"] = wl
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsbench:", err)
			return 1
		}
		fmt.Println(string(out))
		return code
	}
}

// defaultRunConfig is the shape BENCHMARK.json's run_seconds buys.
func defaultRunConfig(bin, tmpRoot string, seconds float64) *runConfig {
	return &runConfig{bin: bin, tmpRoot: tmpRoot, seconds: seconds, setupRepeats: 9, ladderCalls: defaultLadderCalls}
}

// runSet runs every workload once.
func runSet(ctx context.Context, seed int64, cfg *runConfig) ([]*result, error) {
	var out []*result
	for _, spec := range workloads {
		res, err := runWorkload(ctx, spec, seed, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func printNotes(res *result) {
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "wsbench: %s: %s\n", res.Workload, n)
	}
}

// exitCode is non-zero when the oracle found a violation or the generator
// could not keep its own schedule; the metrics are printed either way.
func exitCode(res *result) int {
	if !res.Correct || !res.GeneratorValid {
		return 1
	}
	return 0
}

// contractLine is the one-line JSON the driver reads: end-to-end metrics
// untraced, per-layer metrics traced.
func contractLine(res *result, traced bool) (string, error) {
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.Correct && res.GeneratorValid,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   ms,
	})
	return string(out), err
}

// fullDoc is the human-facing form: every metric with its sample count.
func fullDoc(res *result) map[string]any {
	type row struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	rows := func(ms map[string]metric) map[string]row {
		out := map[string]row{}
		for k, m := range ms {
			out[k] = row{m.Value, m.Unit, m.N}
		}
		return out
	}
	failedShare := 0.0
	if res.Attempted > 0 {
		failedShare = float64(res.Failed) / float64(res.Attempted)
	}
	doc := map[string]any{
		"correct":            res.Correct,
		"generator_valid":    res.GeneratorValid,
		"attempted":          res.Attempted,
		"failed":             res.Failed,
		"failed_share":       failedShare,
		"receipts_expected":  res.Verdict.expected,
		"receipts_delivered": res.Verdict.got,
		"end_to_end":         rows(res.EndToEnd),
	}
	if len(res.PerLayer) > 0 {
		doc["per_layer"] = rows(res.PerLayer)
	}
	if len(res.Notes) > 0 {
		doc["notes"] = res.Notes
	}
	return doc
}
