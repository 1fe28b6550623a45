package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"impeccable/internal/campaign"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
	"impeccable/internal/service"
)

// projection is the science of one campaign that the benchmark checks:
// deterministic for a request, independent of timing.
type projection struct {
	Counts          campaign.FunnelCounts    `json:"counts"`
	Top             []campaign.TopComparison `json:"top"`
	ScientificYield float64                  `json:"scientific_yield"`
}

func project(sum service.ResultSummary) projection {
	return projection{Counts: sum.Funnel.Counts(), Top: sum.Top, ScientificYield: sum.ScientificYield}
}

// refSet is the committed reference of one instance set: its requests
// and every instance's science when run alone against cold caches.
// Skipped lists the candidates left out because they dock a molecule
// whose fingerprint an earlier instance already docked.
type refSet struct {
	Set       string                `json:"set"`
	Shape     service.SubmitRequest `json:"shape"`
	Skipped   []int                 `json:"skipped_candidates"`
	Instances []refInstance         `json:"instances"`
}

type refInstance struct {
	Index      int        `json:"index"`
	Seed       uint64     `json:"seed"`
	LibOffset  uint64     `json:"lib_offset"`
	Projection projection `json:"projection"`
}

//go:embed reference/*.json
var refFS embed.FS

func loadRefs(set instanceSet) (*refSet, error) {
	b, err := refFS.ReadFile("reference/" + set.name + ".json")
	if err != nil {
		return nil, err
	}
	var rs refSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("reference %s: %w", set.name, err)
	}
	if err := rs.matches(set); err != nil {
		return nil, err
	}
	return &rs, nil
}

// matches rejects a reference file written for other requests.
func (rs *refSet) matches(set instanceSet) error {
	if rs.Set != set.name || rs.Shape != set.shape || len(rs.Instances) != set.size {
		return fmt.Errorf("reference %s does not describe the instance set in the code", set.name)
	}
	for i, ri := range rs.Instances {
		if ri.Index != i {
			return fmt.Errorf("reference %s lists instance %d at position %d", set.name, ri.Index, i)
		}
	}
	return nil
}

// request returns instance i of the set.
func (rs *refSet) request(i int) service.SubmitRequest {
	r := rs.Shape
	r.Seed, r.LibOffset = rs.Instances[i].Seed, rs.Instances[i].LibOffset
	return r
}

// checkCold compares a cold job's science with its reference. No two
// instances dock a common fingerprint (see genRefs), so the job must
// match its reference exactly, docking ledger included.
func checkCold(ref, got projection) error {
	if err := sameScience(ref, got); err != nil {
		return err
	}
	if r, g := ref.Counts, got.Counts; g.DockEvals != r.DockEvals || g.DockCacheHits != r.DockCacheHits {
		return fmt.Errorf("docking ledger %d evals/%d hits, reference %d evals/%d hits",
			g.DockEvals, g.DockCacheHits, r.DockEvals, r.DockCacheHits)
	}
	return nil
}

// checkWarm compares a resubmitted job with its reference: the same
// science, with every dock served from the score cache.
func checkWarm(ref, got projection) error {
	if err := sameScience(ref, got); err != nil {
		return err
	}
	if got.Counts.DockEvals != 0 || got.Counts.DockCacheHits != ref.Counts.Docked {
		return fmt.Errorf("warm resubmit spent %d dock evals with %d cache hits (want 0 evals, %d hits)",
			got.Counts.DockEvals, got.Counts.DockCacheHits, ref.Counts.Docked)
	}
	return nil
}

// sameScience compares everything but the docking ledger.
func sameScience(a, b projection) error {
	ac, bc := a.Counts, b.Counts
	ac.DockEvals, ac.DockCacheHits = 0, 0
	bc.DockEvals, bc.DockCacheHits = 0, 0
	switch {
	case ac != bc:
		return fmt.Errorf("funnel counts %+v, want %+v", bc, ac)
	case !reflect.DeepEqual(a.Top, b.Top):
		return fmt.Errorf("top compounds %+v, want %+v", b.Top, a.Top)
	case a.ScientificYield != b.ScientificYield:
		return fmt.Errorf("scientific yield %v, want %v", b.ScientificYield, a.ScientificYield)
	}
	return nil
}

// genRefs builds the instance set and its reference. It runs candidate
// requests one at a time, each alone against cold caches, and keeps a
// candidate only if none of the molecules it docks shares a fingerprint
// with a molecule a kept instance docks. The score cache makes the first
// docking of a fingerprint canonical for every later campaign, so this
// is what keeps a cold workload cold: each job's science is its
// reference whichever jobs ran before it.
func genRefs(set instanceSet) (*refSet, error) {
	t, err := target(set.shape.Target)
	if err != nil {
		return nil, err
	}
	rs := &refSet{Set: set.name, Shape: set.shape, Skipped: []int{}}
	docked := map[chem.Fingerprint]bool{}
	for c := 0; len(rs.Instances) < set.size; c++ {
		if c >= 4*set.size {
			return nil, fmt.Errorf("%s: only %d of %d candidates dock disjoint molecules", set.name, len(rs.Instances), c)
		}
		req := set.candidate(c)
		fps := &fingerprints{inner: service.NewScoreCache(16, 0).ForTarget(t.Name), seen: map[chem.Fingerprint]bool{}}
		cfg := service.BaseConfig(req, t)
		cfg.Workers = runtime.NumCPU()
		cfg.DockCache = fps
		cfg.Features = service.NewFeatureCache(16, 0)
		res, err := campaign.RunWithPool(cfg, nil, req.LibOffset)
		if err != nil {
			return nil, fmt.Errorf("%s candidate %d: %w", set.name, c, err)
		}
		if shared := fps.sharedWith(docked); shared {
			rs.Skipped = append(rs.Skipped, c)
			continue
		}
		for fp := range fps.seen {
			docked[fp] = true
		}
		sum := service.ResultSummary{Funnel: res.Funnel, Top: res.Top, ScientificYield: res.ScientificYield}
		rs.Instances = append(rs.Instances, refInstance{
			Index: len(rs.Instances), Seed: req.Seed, LibOffset: req.LibOffset, Projection: project(sum),
		})
	}
	return rs, nil
}

// fingerprints is a score-cache view that records the fingerprint of
// every molecule the campaign looks up, that is, every molecule it docks.
type fingerprints struct {
	inner dock.ScoreCache
	mu    sync.Mutex
	seen  map[chem.Fingerprint]bool
}

func (f *fingerprints) Get(m *chem.Molecule) (dock.Result, bool) {
	f.mu.Lock()
	f.seen[m.FP()] = true
	f.mu.Unlock()
	return f.inner.Get(m)
}

func (f *fingerprints) Put(m *chem.Molecule, r dock.Result) { f.inner.Put(m, r) }

func (f *fingerprints) sharedWith(docked map[chem.Fingerprint]bool) bool {
	for fp := range f.seen {
		if docked[fp] {
			return true
		}
	}
	return false
}

func writeRefs(dir string, rs *refSet) error {
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rs.Set+".json"), append(b, '\n'), 0o644)
}

func target(name string) (*receptor.Target, error) {
	for _, t := range receptor.StandardTargets() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("unknown target %q", name)
}
