// Command perfbench is the repository benchmark: it builds nothing itself
// (run.sh builds tempod and this command), starts the real cmd/tempod as a
// child process, drives one named workload against it from at most nproc
// kept-alive connections, checks every output, and prints the end-to-end
// metrics. With -trace 1 it also replays the workload in process at three
// depths (HTTP handler, service, bare session and store) with a span
// around every call, and prints the per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet-small --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed; every cluster seed and request choice derives from it")
		seconds = flag.Float64("seconds", 30, "run length the timed phases are sized to")
		trace   = flag.Int("trace", 0, "1 replays the workload in process with spans and prints the per-layer metrics")
		tempod  = flag.String("tempod", ".bench_build/tempod", "tempod binary")
		work    = flag.String("work", ".bench_build/work", "scratch directory for data dirs and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *tempod, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func run(name string, seed int64, seconds float64, traced bool, bin, work string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	work = filepath.Join(work, w.name)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// Only the traced run's span file is kept; data dirs and stores go.
	defer func() {
		ents, _ := os.ReadDir(work)
		for _, e := range ents {
			if e.IsDir() {
				os.RemoveAll(filepath.Join(work, e.Name()))
			}
		}
	}()

	t, err := runTimed(w, seed, seconds, bin, work)
	if err != nil {
		return err
	}
	out := output{Correct: len(t.mismatches) == 0, Attempted: t.attempts, Failed: t.failed, Metrics: t.metrics}
	if traced {
		layers, err := runTraced(w, seed, seconds, work)
		if err != nil {
			return err
		}
		out.Metrics = t.layer
		for k, v := range layers.metrics {
			out.Metrics[k] = v
		}
		out.Correct = out.Correct && len(layers.mismatches) == 0
		t.mismatches = append(t.mismatches, layers.mismatches...)
	}
	printSummary(w, out.Metrics)
	for i, m := range t.mismatches {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more mismatches\n", len(t.mismatches)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", m)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("outputs did not check out; see MISMATCH lines above")
	}
	return nil
}

// printSummary writes every metric, sorted, to standard error.
func printSummary(w *workload, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s %-34s %14.4f %s\n", w.name, n, ms[n].Value, ms[n].Unit)
	}
}
