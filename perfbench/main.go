// Command perfbench is the repository benchmark. It runs a remote-only
// campaign coordinator (journaled to a fresh state dir) and one worker
// in one process over loopback HTTP, drives it with two tenant clients
// in a closed loop for a fixed window, checks every result against the
// committed reference science, and prints the metrics as JSON:
//
//	perfbench --workload tail-small --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the coordinator's handler and the worker's HTTP
// client, replays the run's jobs in-process with stage-boundary timing,
// and prints the per-layer metrics. perfbench/run.sh builds and runs it
// from the root of a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: tail-small, screen-cold or resubmit-warm")
		seed    = flag.Uint64("seed", 1, "workload seed: picks and orders the requests")
		seconds = flag.Float64("seconds", 30, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = per-layer metrics from a traced run")
		root    = flag.String("root", ".", "checkout root; scratch state goes under <root>/.bench_build")
		gen     = flag.String("gen-refs", "", "write reference/<set>.json for this instance set and exit")
		refsDir = flag.String("refs-dir", "perfbench/reference", "where -gen-refs writes")
	)
	flag.Parse()
	if *gen != "" {
		w, ok := workloads[*gen]
		if !ok {
			fail(fmt.Errorf("unknown instance set %q", *gen))
		}
		rs, err := genRefs(w.set)
		if err == nil {
			err = writeRefs(*refsDir, rs)
		}
		if err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1", strings.Join(workloadNames(), ",")))
	}
	refs, err := loadRefs(w.set)
	if err != nil {
		fail(err)
	}
	steal0 := stealSeconds()
	work := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	out, err := run(options{
		w: w, refs: refs, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, work: work, setups: 9, restarts: 9,
	})
	if err != nil {
		os.RemoveAll(work)
		fail(err)
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", m)
	}
	info := map[string]any{
		"schema":   "impeccable-perfbench/1",
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": environment(*root), "samples": out.samples, "metrics": out.Metrics,
		"host_steal_s": stealSeconds() - steal0,
	}
	emit(info)
	emit(out)
	if !out.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
