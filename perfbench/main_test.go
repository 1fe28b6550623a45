package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"impeccable/internal/service"
)

// tinyShape keeps every stage but shrinks the library and the tail.
var tinyShape = service.SubmitRequest{
	Target: "PLPro", LibrarySize: 30, TrainSize: 10,
	CGCount: 1, TopCompounds: 1, OutliersPer: 1, FastProtocols: true,
}

var (
	tinyOnce sync.Once
	tinyRefs map[string]*refSet
	tinyErr  error
)

// tiny returns the named workload over a 4-instance tiny set, with
// references generated the way the committed ones are.
func tiny(t *testing.T, name string) (workload, *refSet) {
	t.Helper()
	tinyOnce.Do(func() {
		tinyRefs = map[string]*refSet{}
		for _, w := range workloads {
			if _, ok := tinyRefs[w.set.name]; ok {
				continue
			}
			set := w.set
			set.shape, set.size = tinyShape, 4
			rs, err := genRefs(set)
			if err != nil {
				tinyErr = err
				return
			}
			tinyRefs[set.name] = rs
		}
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	w := workloads[name]
	w.set.shape, w.set.size = tinyShape, 4
	return w, tinyRefs[w.set.name]
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func tinyRun(t *testing.T, w workload, refs *refSet, trace bool) *outcome {
	t.Helper()
	out, err := run(options{
		w: w, refs: refs, seed: 7, window: 8 * time.Second, trace: trace,
		work: t.TempDir(), setups: 2, restarts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWorkloadsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			w, refs := tiny(t, name)
			out := tinyRun(t, w, refs, trace)
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d mismatches=%v",
					name, trace, out.Correct, out.Attempted, out.Failed, out.mismatches)
			}
			key := "end_to_end"
			if trace {
				key = "per_layer"
			}
			want := declared(t, key)
			got := map[string]string{}
			for n, m := range out.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trace=%v: emitted metrics %v\nBENCHMARK.json %s: %v", name, trace, got, key, want)
			}
		}
	}
}

func TestCorrectnessGateTripsOnAlteredReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	w, refs := tiny(t, "tail-small")
	altered := *refs
	altered.Instances = append([]refInstance(nil), refs.Instances...)
	for i := range altered.Instances {
		altered.Instances[i].Projection.ScientificYield += 0.5
	}
	out := tinyRun(t, w, &altered, false)
	if out.Correct || len(out.mismatches) == 0 {
		t.Fatal("a run against an altered reference passed its correctness gate")
	}
	if out.Failed != 0 {
		t.Fatalf("a mismatch was counted as a failed operation (%d)", out.Failed)
	}
	if !strings.Contains(out.mismatches[0], "scientific yield") {
		t.Fatalf("unexpected mismatch: %s", out.mismatches[0])
	}
}

func TestPlanComesFromSeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := makePlan(w, 1), makePlan(w, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: one seed gave two plans", name)
		}
		if reflect.DeepEqual(a, makePlan(w, 2)) {
			t.Fatalf("%s: seeds 1 and 2 gave the same plan", name)
		}
		if w.prime > 0 {
			continue
		}
		seen := map[int]bool{}
		for _, q := range a.queues {
			for _, i := range q {
				if seen[i] {
					t.Fatalf("%s: instance %d submitted twice in a cold workload", name, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != w.set.size {
			t.Fatalf("%s: plan covers %d of %d instances", name, len(seen), w.set.size)
		}
	}
}

func TestCommittedReferencesMatchInstanceSets(t *testing.T) {
	for _, name := range workloadNames() {
		if _, err := loadRefs(workloads[name].set); err != nil {
			t.Fatal(err)
		}
	}
}
