package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
	"impeccable/internal/service"
)

// stageNames are the funnel stages in the order campaign.Config.Progress
// announces them; "done" closes the last one.
var stageNames = []string{"s1-train", "ml1-train", "ml1-screen", "s1-dock", "s3-cg", "s2", "s3-fg"}

// span is one stage of one campaign: wall seconds and the process
// CPU-seconds spent over the same window.
type span struct{ wall, cpu float64 }

// funnelRun is one in-process campaign of the traced funnel pass.
type funnelRun struct {
	wall   float64
	stages map[string]span
	flops  map[string]int64 // by campaign flop-counter component
	proj   projection
}

// funnelPass runs campaigns in-process exactly as the worker does: the
// same base config, worker width and cache types, with caches that
// persist across the pass the way the worker's persist across jobs.
// Stage spans come from the Progress stage-boundary callback.
type funnelPass struct {
	target   *receptor.Target
	scores   *countingScores
	features *countingFeatures
}

func newFunnelPass(t *receptor.Target) *funnelPass {
	return &funnelPass{
		target:   t,
		scores:   &countingScores{inner: service.NewScoreCache(16, 0).ForTarget(t.Name)},
		features: &countingFeatures{cache: service.NewFeatureCache(16, 0)},
	}
}

func (f *funnelPass) run(req service.SubmitRequest) (*funnelRun, error) {
	cfg := service.BaseConfig(req, f.target)
	cfg.Workers = runtime.NumCPU()
	cfg.DockCache = f.scores
	cfg.Features = f.features
	out := &funnelRun{stages: map[string]span{}, flops: map[string]int64{}}
	var (
		cur    string
		curT   time.Time
		curCPU float64
		mu     sync.Mutex
	)
	cfg.Progress = func(stage string, _ float64) {
		now, cpu := time.Now(), cpuSeconds()
		mu.Lock()
		defer mu.Unlock()
		if stage == cur {
			return
		}
		if cur != "" {
			s := out.stages[cur]
			s.wall += now.Sub(curT).Seconds()
			s.cpu += cpu - curCPU
			out.stages[cur] = s
		}
		cur, curT, curCPU = stage, now, cpu
	}
	start := time.Now()
	res, err := campaign.RunWithPool(cfg, nil, req.LibOffset)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start).Seconds()
	for _, c := range res.Counter.Stats() {
		out.flops[c.Component] = c.Flops
	}
	out.proj = project(service.ResultSummary{Funnel: res.Funnel, Top: res.Top, ScientificYield: res.ScientificYield})
	return out, nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// countingScores wraps a score-cache view and counts its lookups.
type countingScores struct {
	inner         dock.ScoreCache
	hits, lookups atomic.Int64
}

func (c *countingScores) Get(m *chem.Molecule) (dock.Result, bool) {
	c.lookups.Add(1)
	r, ok := c.inner.Get(m)
	if ok {
		c.hits.Add(1)
	}
	return r, ok
}

func (c *countingScores) Put(m *chem.Molecule, r dock.Result) { c.inner.Put(m, r) }

// countingFeatures serves feature vectors through a FeatureCache the
// way the worker's cache wrapper does (look up, else compute and
// insert) and counts the lookups.
type countingFeatures struct {
	cache         *service.FeatureCache
	hits, lookups atomic.Int64
}

func (c *countingFeatures) Features(id uint64) []float64 {
	c.lookups.Add(1)
	if v, ok := c.cache.Lookup(id); ok {
		c.hits.Add(1)
		return v
	}
	v := chem.FromID(id).FeatureVector()
	c.cache.Insert(id, v)
	return v
}

func (c *countingFeatures) FeaturesInto(dst []float64, id uint64) {
	c.lookups.Add(1)
	if v, ok := c.cache.Lookup(id); ok {
		c.hits.Add(1)
		copy(dst, v)
		return
	}
	chem.FromID(id).FeatureVectorInto(dst)
	c.cache.Insert(id, append([]float64(nil), dst...))
}
