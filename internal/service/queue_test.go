package service

import (
	"errors"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runNext leases the next job as worker w and completes it done — one
// whole run through the lease path, with no campaign behind it.
func runNext(t *testing.T, s *scheduler, w string) string {
	t.Helper()
	j, err := s.lease(w, 0, time.Now())
	if err != nil || j == nil {
		t.Fatalf("lease = %v, %v", j, err)
	}
	if err := s.completeRemote(w, tokenOf(t, s, j.id), j.id, StateDone, "", &ResultSummary{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	return j.id
}

// TestSchedulerQueueBound exercises MaxQueued at the scheduler level:
// a leased job no longer holds a pending slot.
func TestSchedulerQueueBound(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.maxQueued = 1
	defer s.shutdown()
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	// Lease job 1 out, so the queue is empty.
	if j, err := s.lease("w1", 0, time.Now()); err != nil || j == nil {
		t.Fatalf("lease = %v, %v", j, err)
	}
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatalf("submit into empty queue: %v", err)
	}
	// Queue now holds 1 pending job = MaxQueued: the next must bounce.
	_, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
}

// TestCancelFreesQueueSlot: canceling a queued job must release its
// MaxQueued slot immediately, not when a worker eventually skips the
// tombstone.
func TestCancelFreesQueueSlot(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.maxQueued = 1
	defer s.shutdown()
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatal(err)
	}
	if j, err := s.lease("w1", 0, time.Now()); err != nil || j == nil {
		t.Fatalf("lease = %v, %v", j, err)
	}
	idQ, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel overflow error = %v, want ErrQueueFull", err)
	}
	if _, err := s.cancelJob(idQ, ""); err != nil {
		t.Fatal(err)
	}
	// The leased job still runs, but the slot must already be free.
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatalf("submit after canceling the queued job: %v", err)
	}
}

// TestSchedulerPruneTerminal exercises MaxJobRecords: terminal records
// beyond the bound disappear from the table, the order and listings,
// oldest first; live jobs are never pruned.
func TestSchedulerPruneTerminal(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.maxRecords = 2
	defer s.shutdown()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for range ids {
		runNext(t, s, "w1")
	}
	list := s.list()
	if len(list) != 2 || list[0].State != StateDone || list[1].State != StateDone {
		t.Fatalf("after five runs: %+v", list)
	}
	// The survivors are the two newest.
	if list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Fatalf("survivors = %s,%s want %s,%s", list[0].ID, list[1].ID, ids[3], ids[4])
	}
	for _, id := range ids[:3] {
		if _, ok := s.get(id); ok {
			t.Fatalf("pruned job %s still in the table", id)
		}
	}
	// New submissions still work and IDs keep advancing past pruned ones.
	id6, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if id6 != "job-000006" {
		t.Fatalf("next ID = %s, want job-000006", id6)
	}
}

// TestSchedulerPruneSparesLiveJobs: a leased job older than every
// terminal record must survive pruning.
func TestSchedulerPruneSparesLiveJobs(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.maxRecords = 1
	defer s.shutdown()
	idRun, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if j, err := s.lease("w-slow", 0, time.Now()); err != nil || j == nil || j.id != idRun {
		t.Fatalf("lease = %v, %v", j, err)
	}
	// These run on a second worker and go terminal while the older
	// blocker is still leased; pruning must only touch the terminals.
	var done []string
	for i := 0; i < 3; i++ {
		id, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
		done = append(done, id)
		runNext(t, s, "w-fast")
	}
	if n := len(s.list()); n != 2 { // leased blocker + 1 retained terminal
		t.Fatalf("listing holds %d jobs, want 2", n)
	}
	if st := stateOf(t, s, idRun); st != StateLeased {
		t.Fatalf("old leased job state = %s, want leased", st)
	}
	if _, ok := s.get(done[2]); !ok {
		t.Fatalf("newest terminal job %s missing", done[2])
	}
	if err := s.completeRemote("w-slow", tokenOf(t, s, idRun), idRun, StateDone, "", &ResultSummary{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if list := s.list(); len(list) != 1 || list[0].ID != done[2] {
		t.Fatalf("after the blocker finished: %+v", list)
	}
}
