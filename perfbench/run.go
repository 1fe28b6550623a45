package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"impeccable/internal/service"
)

// rssAfterJobs is how many measured jobs peak_rss_mb covers.
const rssAfterJobs = 3

type options struct {
	w        workload
	refs     *refSet
	seed     uint64
	window   time.Duration
	trace    bool
	work     string // parent of this run's state dirs
	setups   int    // stack bring-ups timed for setup_s; the last one is kept
	restarts int    // coordinator re-opens timed for restart_s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result; its JSON is the benchmark's last output line.
type outcome struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	samples    map[string]int
	mismatches []string
}

func (o *outcome) set(name, unit string, v float64) { o.Metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// run executes one benchmark run: set-up and the measured closed loop
// and, when tracing, the checkpoint and restart checks and the
// in-process funnel pass.
func run(o options) (*outcome, error) {
	p := makePlan(o.w, o.seed)
	out := &outcome{Metrics: map[string]metric{}, samples: map[string]int{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: bring the stack up several times on fresh state dirs and
	// keep the last; a warm workload then primes its instances once.
	var setups []float64
	var st *stack
	for i := 0; i < o.setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		s, err := startStack(filepath.Join(o.work, fmt.Sprintf("state-%d", i)), true, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	originals := map[int]projection{}
	var primed []*jobRecord
	primeWall := 0.0
	if len(p.prime) > 0 {
		pp := plan{order: p.order, queues: map[string][]int{}}
		for k, inst := range p.prime {
			pp.queues[p.order[k%2]] = append(pp.queues[p.order[k%2]], inst)
		}
		t0 := time.Now()
		primed = closedLoop(context.Background(), st.url, o.refs, pp, nil)
		primeWall = time.Since(t0).Seconds()
		for _, r := range primed {
			if r.err != nil {
				return nil, fmt.Errorf("priming: %w", r.err)
			}
			got := project(r.summary)
			if err := checkCold(o.refs.Instances[r.inst].Projection, got); err != nil {
				out.mismatch("priming instance %d (%s): %v", r.inst, r.id, err)
			}
			originals[r.inst] = got
		}
	}
	setupS := median(setups) + primeWall
	out.samples["setup_s"] = len(setups)
	if tr != nil {
		tr.reset()
	}
	scores0, features0 := st.wk.ScoreCacheStats(), st.wk.FeatureCacheStats()

	// The measured window. Peak RSS is read when the rssAfterJobs-th job
	// comes back, so it measures a fixed amount of work and not how many
	// jobs a faster or slower build fits in the window.
	ctx, cancel := context.WithTimeout(context.Background(), o.window)
	start := time.Now()
	finished, rss := 0, 0.0
	recs := closedLoop(ctx, st.url, o.refs, p, func(*jobRecord) {
		if finished++; finished == rssAfterJobs {
			rss = peakRSSMB()
		}
	})
	cancel()
	if rss == 0 {
		rss = peakRSSMB()
	}
	out.samples["peak_rss_mb_jobs"] = min(finished, rssAfterJobs)

	var done []*jobRecord
	for _, r := range recs {
		switch {
		case r.inFlight && r.err == nil:
		case r.err != nil:
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s instance %d: %v\n", r.tenant, r.inst, r.err)
		default:
			done = append(done, r)
		}
	}
	out.Attempted = len(done) + out.Failed
	if len(done) == 0 {
		return nil, fmt.Errorf("no job finished inside the %v window", o.window)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].snap.Started.Before(*done[j].snap.Started) })
	for _, r := range done {
		got, ref := project(r.summary), o.refs.Instances[r.inst].Projection
		if orig, warm := originals[r.inst]; warm {
			if err := checkWarm(ref, got); err != nil {
				out.mismatch("instance %d (%s): %v", r.inst, r.id, err)
			}
			if err := sameScience(orig, got); err != nil {
				out.mismatch("instance %d (%s) differs from its priming original: %v", r.inst, r.id, err)
			}
		} else if err := checkCold(ref, got); err != nil {
			out.mismatch("instance %d (%s): %v", r.inst, r.id, err)
		}
	}

	var lat []float64
	var last time.Time
	var ligands, effective float64
	for _, r := range done {
		lat = append(lat, r.latency().Seconds())
		if r.result1.After(last) {
			last = r.result1
		}
		ligands += float64(r.summary.Funnel.Screened)
		effective += r.summary.ScientificYield * float64(r.summary.Funnel.CG)
	}
	wall := last.Sub(start).Seconds()
	out.samples["jobs"] = len(done)
	out.samples["job_latency_p50_s"] = len(lat)

	if !o.trace {
		out.set("setup_s", "s", setupS)
		out.set("job_latency_p50_s", "s", median(lat))
		out.set("campaigns_per_min", "1/min", float64(len(done))/wall*60)
		out.set("ligands_per_s", "1/s", ligands/wall)
		out.set("peak_rss_mb", "MB", rss)
		out.Correct = len(out.mismatches) == 0
		return out, nil
	}

	// After the window: the worker stops (abandoning a canceled job),
	// then the coordinator's checkpoint and cache levels are read.
	ws, wf := st.wk.ScoreCacheStats(), st.wk.FeatureCacheStats()
	st.stopWorker()
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := st.svc.Snapshot(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		ckpt = append(ckpt, ms(time.Since(t0)))
	}
	out.set("coord.score_entries", "count", float64(st.svc.ScoreCacheStats().Entries))
	out.set("coord.feature_entries", "count", float64(st.svc.FeatureCacheStats().Entries))
	jobsSubmitted := len(recs) + len(primed)
	dir := st.dir
	st.close()
	st = nil
	journalBytes, blobBytes, err := stateBytes(dir)
	if err != nil {
		return nil, err
	}

	// Restart: re-open the coordinator on the run's state dir.
	var restarts []float64
	for i := 0; i < o.restarts; i++ {
		t0 := time.Now()
		s, err := startStack(dir, false, nil)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		s.close()
	}
	out.samples["restart_s"] = len(restarts)

	out.set("restart_s", "s", median(restarts))
	out.set("effective_ligands_per_s", "1/s", effective/wall)
	out.set("error_rate", "ratio", ratio(float64(out.Failed), float64(out.Attempted)))
	out.set("checkpoint.unchanged_ms", "ms", median(ckpt))
	out.set("journal.bytes_per_job", "B", ratio(float64(journalBytes), float64(jobsSubmitted)))
	out.set("blob.bytes_per_job", "B", ratio(float64(blobBytes), float64(jobsSubmitted)))
	out.set("worker.score_hit_rate", "ratio", hitRate(scores0, ws))
	out.set("worker.feature_hit_rate", "ratio", hitRate(features0, wf))
	layerMetrics(out, tr, done)
	if err := funnelMetrics(o, out, tr, primed, done); err != nil {
		return nil, err
	}
	out.Correct = len(out.mismatches) == 0
	return out, nil
}

// layerMetrics reads the scheduler, HTTP and worker-protocol layers
// from the job snapshots and the tracer's spans.
func layerMetrics(out *outcome, tr *tracer, done []*jobRecord) {
	var wait, runS []float64
	for _, r := range done {
		wait = append(wait, r.snap.Started.Sub(r.snap.Submitted).Seconds())
		runS = append(runS, r.snap.Finished.Sub(*r.snap.Started).Seconds())
	}
	out.set("sched.queue_wait_s_p50", "s", median(wait))
	out.set("sched.run_s_p50", "s", median(runS))

	lease := tr.calls(tr.server, "POST /api/v1/worker/lease")
	granted := 0
	for _, c := range lease {
		if c.status == 200 {
			granted++
		}
	}
	out.set("sched.lease_ms_p50", "ms", median(callMS(lease, false)))
	out.set("sched.lease_hit_ratio", "ratio", ratio(float64(granted), float64(len(lease))))
	out.set("http.submit_ms_p50", "ms", median(callMS(tr.calls(tr.server, "POST /api/v1/campaigns"), false)))
	out.set("http.status_ms_p50", "ms", median(callMS(tr.calls(tr.server, "GET /api/v1/campaigns/{id}"), false)))
	out.set("http.result_ms_p50", "ms", median(callMS(tr.calls(tr.server, "GET /api/v1/campaigns/{id}/result"), false)))
	complete := tr.calls(tr.server, "POST /api/v1/worker/complete")
	out.set("complete.server_ms_p50", "ms", median(callMS(complete, false)))
	var bytes []float64
	for _, c := range complete {
		bytes = append(bytes, float64(c.reqBytes))
	}
	out.set("complete.req_bytes_p50", "B", median(bytes))
	requests := 0
	tr.mu.Lock()
	for _, cs := range tr.server {
		requests += len(cs)
	}
	tr.mu.Unlock()
	out.set("http.requests", "count", float64(requests))
	out.set("worker.lease_rtt_ms_p50", "ms", median(callMS(tr.calls(tr.client, "/api/v1/worker/lease"), true)))
	out.set("worker.complete_rtt_ms_p50", "ms", median(callMS(tr.calls(tr.client, "/api/v1/worker/complete"), false)))
	out.samples["sched.lease_requests"] = len(lease)
	out.samples["complete"] = len(complete)
}

// funnelMetrics replays the run's jobs in-process, in the order the
// worker ran them, checks each against the service's result, and
// derives the funnel, overhead and coverage metrics. A warm workload
// first replays its priming jobs so the pass's caches are warmed
// exactly as the worker's were.
func funnelMetrics(o options, out *outcome, tr *tracer, primed, done []*jobRecord) error {
	t, err := target(o.w.set.shape.Target)
	if err != nil {
		return err
	}
	fp := newFunnelPass(t)
	replay := func(r *jobRecord) (*funnelRun, error) {
		fr, err := fp.run(o.refs.request(r.inst))
		if err != nil {
			return nil, fmt.Errorf("funnel pass, instance %d: %w", r.inst, err)
		}
		if got := project(r.summary); !reflect.DeepEqual(fr.proj, got) {
			out.mismatch("instance %d (%s): in-process pass %+v, service %+v", r.inst, r.id, fr.proj, got)
		}
		return fr, nil
	}
	sort.Slice(primed, func(i, j int) bool { return primed[i].snap.Started.Before(*primed[j].snap.Started) })
	for _, r := range primed {
		if _, err := replay(r); err != nil {
			return err
		}
	}
	sh0, sl0 := fp.scores.hits.Load(), fp.scores.lookups.Load()
	fh0, fl0 := fp.features.hits.Load(), fp.features.lookups.Load()
	budget := time.Now().Add(o.window / 3)
	var runs []*funnelRun
	for _, r := range done {
		if len(runs) > 0 && time.Now().After(budget) {
			break
		}
		fr, err := replay(r)
		if err != nil {
			return err
		}
		runs = append(runs, fr)
	}
	out.samples["funnel_jobs"] = len(runs)
	out.set("funnel.score_hit_rate", "ratio", ratio(float64(fp.scores.hits.Load()-sh0), float64(fp.scores.lookups.Load()-sl0)))
	out.set("funnel.feature_hit_rate", "ratio", ratio(float64(fp.features.hits.Load()-fh0), float64(fp.features.lookups.Load()-fl0)))

	var walls []float64
	var wallSum float64
	stageSum := map[string]span{}
	flops := map[string]float64{}
	var evals, screened, cg, fg float64
	for _, fr := range runs {
		walls = append(walls, fr.wall)
		wallSum += fr.wall
		for name, s := range fr.stages {
			agg := stageSum[name]
			agg.wall += s.wall
			agg.cpu += s.cpu
			stageSum[name] = agg
		}
		for c, f := range fr.flops {
			flops[c] += float64(f)
		}
		c := fr.proj.Counts
		evals += float64(c.DockEvals)
		screened += float64(c.Screened)
		cg += float64(c.CG)
		fg += float64(c.FG)
	}
	procs := float64(runtime.GOMAXPROCS(0))
	for _, name := range stageNames {
		var per []float64
		for _, fr := range runs {
			per = append(per, fr.stages[name].wall)
		}
		s := stageSum[name]
		out.set("stage."+name+".s", "s", median(per))
		out.set("stage."+name+".share", "ratio", ratio(s.wall, wallSum))
		out.set("stage."+name+".cpu_util", "ratio", ratio(s.cpu, s.wall*procs))
	}
	w := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += stageSum[n].wall
		}
		return sum
	}
	out.set("funnel.wall_s_p50", "s", median(walls))
	out.set("stage.ml1.flop_per_s", "flop/s", ratio(flops["ML1"]+flops["ML1-train"], w("ml1-train", "ml1-screen")))
	out.set("stage.s1.flop_per_s", "flop/s", ratio(flops["S1"], w("s1-train", "s1-dock")))
	out.set("stage.s3-cg.flop_per_s", "flop/s", ratio(flops["S3-CG"], w("s3-cg")))
	out.set("stage.s2.flop_per_s", "flop/s", ratio(flops["S2"], w("s2")))
	out.set("stage.s3-fg.flop_per_s", "flop/s", ratio(flops["S3-FG"], w("s3-fg")))
	out.set("dock.evals_per_s", "1/s", ratio(evals, w("s1-train", "s1-dock")))
	out.set("ml1.screen_ligands_per_s", "1/s", ratio(screened, w("ml1-screen")))
	out.set("s3.cg_ligands_per_s", "1/s", ratio(cg, w("s3-cg")))
	out.set("s3.fg_ligands_per_s", "1/s", ratio(fg, w("s3-fg")))

	// Per job: coordinator run time beyond the funnel, and how much of
	// submit→result the measured layers cover.
	leases, completes := byJob(tr.calls(tr.client, "/api/v1/worker/lease")), byJob(tr.calls(tr.client, "/api/v1/worker/complete"))
	var overhead []float64
	var covered, total time.Duration
	for i, fr := range runs {
		r := done[i]
		overhead = append(overhead, r.snap.Finished.Sub(*r.snap.Started).Seconds()-fr.wall)
		ivs := [][2]time.Time{
			{r.submit0, r.submit1}, {r.done, r.result1}, // HTTP: submit, status and result
			{r.snap.Submitted, *r.snap.Started}, // scheduler queue
		}
		if l, ok := leases[r.id]; ok {
			ivs = append(ivs, [2]time.Time{l.start, l.end},
				[2]time.Time{l.end, l.end.Add(time.Duration(fr.wall * float64(time.Second)))}) // funnel
		}
		if c, ok := completes[r.id]; ok {
			ivs = append(ivs, [2]time.Time{c.start, c.end})
		}
		covered += unionWithin(ivs, r.submit0, r.result1)
		total += r.latency()
	}
	out.set("worker.overhead_s_p50", "s", median(overhead))
	out.set("trace.unaccounted_frac", "ratio", 1-ratio(float64(covered), float64(total)))
	tr.mu.Lock()
	recording := tr.overhead
	tr.mu.Unlock()
	var latSum time.Duration
	for _, r := range done {
		latSum += r.latency()
	}
	out.set("trace.overhead_frac", "ratio", ratio(float64(recording), float64(latSum)))
	return nil
}

func byJob(cs []call) map[string]call {
	m := map[string]call{}
	for _, c := range cs {
		if c.job != "" {
			m[c.job] = c
		}
	}
	return m
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(ivs [][2]time.Time, lo, hi time.Time) time.Duration {
	var clipped [][2]time.Time
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			clipped = append(clipped, [2]time.Time{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0].Before(clipped[j][0]) })
	var sum time.Duration
	var end time.Time
	for _, iv := range clipped {
		if iv[0].After(end) {
			end = iv[0]
		}
		if iv[1].After(end) {
			sum += iv[1].Sub(end)
			end = iv[1]
		}
	}
	return sum
}

func callMS(cs []call, grantedOnly bool) []float64 {
	var v []float64
	for _, c := range cs {
		if !grantedOnly || c.job != "" {
			v = append(v, c.ms())
		}
	}
	return v
}

func hitRate(before, after service.CacheStats) float64 {
	hits := after.Hits - before.Hits
	return ratio(float64(hits), float64(hits+after.Misses-before.Misses))
}

// stateBytes sums the journal segments and the blob store of a state dir.
func stateBytes(dir string) (journal, blobs int64, err error) {
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return 0, 0, err
		}
		journal += fi.Size()
	}
	err = filepath.WalkDir(filepath.Join(dir, "blobs"), func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			blobs += fi.Size()
		}
		return err
	})
	return journal, blobs, err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
