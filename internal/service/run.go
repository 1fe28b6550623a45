package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impeccable/internal/campaign"
)

// LocalWorkerPrefix prefixes the worker IDs of the coordinator's own
// slots ("local/0", "local/1", …). The HTTP worker endpoints reject it,
// so a remote caller can never lease, heartbeat or complete as a local
// slot.
const LocalWorkerPrefix = "local/"

// isLocalWorker reports whether a lease holder is one of the
// coordinator's own slots.
func isLocalWorker(id string) bool { return strings.HasPrefix(id, LocalWorkerPrefix) }

// RunLeased runs the campaign of one leased job — the one routine every
// worker, local slot or remote process, executes a grant with. The
// caller builds cfg from BaseConfig plus its caches and pool width;
// RunLeased wires cancellation and progress, and renews the lease
// through heartbeat every TTL/3 and at each stage change. The run is
// abandoned when a heartbeat reports ErrLeaseLost or ErrUnknownJob,
// when heartbeats fail for a full TTL, or when ctx ends: abandoned is
// then true and the result must not be reported, since the coordinator
// owns the job again and its rerun is deterministic. A panicking
// campaign fails its job, never the process.
func RunLeased(ctx context.Context, g *LeaseGrant, cfg campaign.Config, heartbeat func(stage string, progress float64) error) (res WorkerResult, abandoned bool) {
	cancel := make(chan struct{})
	var lost atomic.Bool
	var once sync.Once
	abort := func() { lost.Store(true); once.Do(func() { close(cancel) }) }
	cfg.Cancel = cancel
	prog := progressState{poke: make(chan struct{}, 1)}
	cfg.Progress = prog.set

	runDone := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		heartbeatLoop(ctx, g, &prog, heartbeat, runDone, abort)
	}()
	out, err := func() (out *campaign.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("campaign panicked: %v", r)
			}
		}()
		return campaign.RunWithPool(cfg, nil, g.Req.LibOffset)
	}()
	close(runDone)
	<-hbDone

	switch {
	case lost.Load() || ctx.Err() != nil:
		return WorkerResult{}, true
	case errors.Is(err, campaign.ErrCanceled):
		res.Canceled = true
	case err != nil:
		res.Error = err.Error()
	default:
		res.Summary = &ResultSummary{
			Funnel:          out.Funnel,
			Top:             out.Top,
			ScientificYield: out.ScientificYield,
		}
	}
	return res, false
}

// heartbeatLoop renews the lease at TTL/3 cadence and on every stage
// change, reporting the latest stage/progress, until the run finishes.
// It aborts the run when the lease is lost, when heartbeats have failed
// for longer than the TTL (the lease has certainly expired by then, so
// the job is no longer this worker's), or when ctx ends.
func heartbeatLoop(ctx context.Context, g *LeaseGrant, prog *progressState, heartbeat func(string, float64) error, runDone <-chan struct{}, abort func()) {
	ttl := time.Duration(g.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	interval := min(max(ttl/3, 20*time.Millisecond), 10*time.Second)
	deadline := time.Now().Add(ttl)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-runDone:
			return
		case <-ctx.Done():
			abort()
			return
		case <-tick.C:
		case <-prog.poke:
		}
		err := heartbeat(prog.get())
		switch {
		case err == nil:
			deadline = time.Now().Add(ttl)
		case errors.Is(err, ErrLeaseLost), errors.Is(err, ErrUnknownJob), time.Now().After(deadline):
			abort()
			return
		}
	}
}

// progressState is the campaign's latest stage/progress, written by
// (possibly concurrent) Progress callbacks and read by heartbeats. A
// stage change pokes the heartbeat loop, so cancels and preemptions
// reach the run at stage granularity rather than a TTL/3 tick later.
type progressState struct {
	mu    sync.Mutex
	stage string
	frac  float64
	poke  chan struct{} // buffered; one pending poke is enough
}

func (p *progressState) set(stage string, frac float64) {
	p.mu.Lock()
	changed := stage != p.stage
	p.stage = stage
	p.frac = max(p.frac, frac)
	p.mu.Unlock()
	if changed {
		select {
		case p.poke <- struct{}{}:
		default:
		}
	}
}

func (p *progressState) get() (string, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stage, p.frac
}

// runSlot is one local slot: it leases jobs under its worker ID exactly
// as a remote worker does and waits on the scheduler's wake channel
// while there is none. It returns once ctx ends; a run in flight is
// abandoned with its lease intact, for restore to requeue.
func (s *Service) runSlot(ctx context.Context, id string) {
	defer s.slotWG.Done()
	for ctx.Err() == nil {
		// A failed lease (the journal closing under a drain) hands out
		// nothing, like an empty queue.
		g, _ := s.Lease(id, 0)
		if g == nil {
			select {
			case <-s.sched.wake:
			case <-ctx.Done():
			}
			continue
		}
		s.sched.poke() // more work may be waiting for an idle sibling
		s.runLocal(ctx, id, g)
	}
}

// runLocal runs one grant on a local slot against the coordinator's
// own caches, so there are no deltas to ship. Heartbeats are direct
// scheduler calls, and the outcome is completed once: a lost lease or
// a drained scheduler refuses it, exactly as for a remote worker.
func (s *Service) runLocal(ctx context.Context, id string, g *LeaseGrant) {
	var res WorkerResult
	if t, ok := s.targets[g.Req.Target]; !ok {
		res.Error = fmt.Sprintf("service: unknown target %q", g.Req.Target)
	} else {
		cfg := BaseConfig(g.Req, t)
		cfg.Workers = s.workers
		cfg.DockCache = s.scores.ForTarget(t.Name)
		cfg.Features = s.features
		var abandoned bool
		res, abandoned = RunLeased(ctx, g, cfg, func(stage string, progress float64) error {
			_, err := s.Heartbeat(id, g.Token, g.JobID, stage, progress)
			return err
		})
		if abandoned {
			return
		}
	}
	_ = s.Complete(id, g.Token, g.JobID, res)
}

// stopSlots cancels the local slots and waits for them to return.
func (s *Service) stopSlots() {
	s.slotStop()
	s.slotWG.Wait()
}
