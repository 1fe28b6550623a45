package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"impeccable/internal/obs"
)

// TestEventBusSemantics exercises the bus without a campaign: replay
// from the beginning, Last-Event-ID resume, and end-of-stream on the
// terminal event.
func TestEventBusSemantics(t *testing.T) {
	b := newEventBus(nil)
	pub := func(typ string, st JobState) {
		b.publish(JobEvent{Job: "j1", Type: typ, State: st, Time: time.Now()})
	}
	pub(evTypeState, StateQueued)
	pub(evTypeProgress, StateLeased)
	pub(evTypeState, StateDone)

	// A late subscriber replays the whole ring and the stream ends.
	sub := b.subscribe("j1", 0)
	evs, over := b.next("j1", sub)
	if len(evs) != 3 || !over {
		t.Fatalf("full replay = %d events, over=%v; want 3, true", len(evs), over)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	b.unsubscribe("j1", sub)

	// Last-Event-ID resume: a cursor after seq 2 sees only the terminal
	// event.
	sub = b.subscribe("j1", 2)
	evs, over = b.next("j1", sub)
	if len(evs) != 1 || evs[0].Seq != 3 || !over {
		t.Fatalf("resume after 2 = %+v, over=%v", evs, over)
	}
	// A cursor already past the terminal event still ends immediately.
	sub2 := b.subscribe("j1", 3)
	if evs, over := b.next("j1", sub2); len(evs) != 0 || !over {
		t.Fatalf("resume past terminal = %d events, over=%v; want 0, true", len(evs), over)
	}
	b.unsubscribe("j1", sub)
	b.unsubscribe("j1", sub2)
	if n := b.subscriberCount("j1"); n != 0 {
		t.Fatalf("subscriberCount after unsubscribe = %d", n)
	}
}

// TestEventBusRingPrune: a subscriber behind a pruned ring skips
// forward instead of blocking or erroring.
func TestEventBusRingPrune(t *testing.T) {
	b := newEventBus(nil)
	sub := b.subscribe("j1", 0)
	for i := 0; i < maxRingEvents+50; i++ {
		b.publish(JobEvent{Job: "j1", Type: evTypeProgress, State: StateLeased})
	}
	evs, over := b.next("j1", sub)
	if over {
		t.Fatal("stream ended without a terminal event")
	}
	if len(evs) != maxRingEvents {
		t.Fatalf("got %d events, want the %d retained", len(evs), maxRingEvents)
	}
	if evs[0].Seq != 51 {
		t.Fatalf("first retained seq = %d, want 51", evs[0].Seq)
	}
	b.unsubscribe("j1", sub)
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    int64
	event string
	data  JobEvent
}

// readSSE parses frames until the terminal event or EOF.
func readSSE(t *testing.T, br *bufio.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	var hasData bool
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if hasData {
				out = append(out, cur)
				if cur.data.Terminal() {
					return out
				}
			}
			cur, hasData = sseEvent{}, false
		case strings.HasPrefix(line, ":"): // keepalive comment
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			hasData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

// TestSSEStreamFollowsJob is the acceptance test for live progress: a
// client subscribed before the campaign starts follows it from queued
// to done — terminal summary included — without ever polling /status.
func TestSSEStreamFollowsJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) campaign")
	}
	_, srv := newTestServer(t)

	var snap JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", smallReq(), &snap); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(srv.URL + "/api/v1/campaigns/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}

	evs := readSSE(t, bufio.NewReader(resp.Body))
	if len(evs) == 0 {
		t.Fatal("no events received")
	}
	var lastSeq int64
	for _, ev := range evs {
		if ev.id <= lastSeq {
			t.Fatalf("SSE ids not strictly increasing: %d after %d", ev.id, lastSeq)
		}
		lastSeq = ev.id
		if ev.id != ev.data.Seq {
			t.Fatalf("SSE id %d != event seq %d", ev.id, ev.data.Seq)
		}
		if ev.event != ev.data.Type {
			t.Fatalf("SSE event %q != type %q", ev.event, ev.data.Type)
		}
	}
	last := evs[len(evs)-1]
	if !last.data.Terminal() || last.data.State != StateDone {
		t.Fatalf("stream ended on %+v, want terminal done", last.data)
	}
	if last.data.Summary == nil || last.data.Summary.Funnel.Docked == 0 {
		t.Fatalf("terminal event carries no usable summary: %+v", last.data.Summary)
	}

	// A fresh subscriber to the finished job gets the retained replay
	// and an immediate end-of-stream.
	resp2, err := http.Get(srv.URL + "/api/v1/campaigns/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, bufio.NewReader(resp2.Body))
	if len(replay) == 0 || !replay[len(replay)-1].data.Terminal() {
		t.Fatalf("replay on finished job = %d events", len(replay))
	}

	// Last-Event-ID resume skips what was already seen.
	req, _ := http.NewRequest("GET", srv.URL+"/api/v1/campaigns/"+snap.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq-1, 10))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	resumed := readSSE(t, bufio.NewReader(resp3.Body))
	if len(resumed) != 1 || resumed[0].id != lastSeq {
		t.Fatalf("resume after %d = %+v, want only seq %d", lastSeq-1, resumed, lastSeq)
	}
}

// TestSSEDisconnectFreesSubscription: a client that walks away mid-
// stream must not leave a subscription (or its gauge) behind.
func TestSSEDisconnectFreesSubscription(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	t.Cleanup(s.Shutdown)
	srv := newHTTPServer(t, s)

	id, err := s.Submit(smallReq()) // stays queued: no local workers
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv+"/api/v1/campaigns/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscription registered", func() bool {
		return s.sched.bus.subscriberCount(id) == 1
	})
	cancel()
	waitFor(t, "subscription freed after disconnect", func() bool {
		return s.sched.bus.subscriberCount(id) == 0
	})
}

// TestSSEUnknownJob404: the events route 404s like the status route.
func TestSSEUnknownJob404(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/api/v1/campaigns/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events on unknown job = %d", resp.StatusCode)
	}
}

// newHTTPServer starts an httptest server over an existing service.
func newHTTPServer(t *testing.T, s *Service) string {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// parseExposition indexes an exposition body by raw series line
// ("name" or `name{labels}`) → value, skipping comments.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsReflectSchedulerState is the acceptance test for the
// exposition: after one submit→complete cycle, /metrics is valid
// 0.0.4 text whose gauges and counters match what the scheduler says.
func TestMetricsReflectSchedulerState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) campaign")
	}
	s, srv := newTestServer(t)

	var snap JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", smallReq(), &snap); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if _, err := s.Wait(snap.ID, 5*time.Minute); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if err := obs.Validate(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails grammar check: %v", err)
	}

	vals := parseExposition(t, body)
	want := map[string]float64{
		"impeccable_jobs_submitted_total":              1,
		`impeccable_jobs_terminal_total{state="done"}`: 1,
		`impeccable_jobs{state="done"}`:                1,
		`impeccable_jobs{state="queued"}`:              0,
		`impeccable_jobs{state="leased"}`:              0,
		"impeccable_queue_depth":                       0,
		"impeccable_leases_active":                     0,
		"impeccable_funnel_runs_total":                 1,
		`impeccable_http_requests_total{route="/api/v1/campaigns",method="POST",code="202"}`: 1,
	}
	for series, v := range want {
		got, ok := vals[series]
		if !ok {
			t.Errorf("series %s missing from exposition", series)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}
	// At least queued → leased → done was published on the bus.
	if v := vals["impeccable_events_published_total"]; v < 3 {
		t.Errorf("impeccable_events_published_total = %v, want >= 3", v)
	}
	// The campaign did real docking: cache misses and funnel seconds
	// must be nonzero somewhere.
	var misses, stageSecs float64
	for series, v := range vals {
		if strings.HasPrefix(series, `impeccable_cache_misses_total{cache="score"`) {
			misses += v
		}
		if strings.HasPrefix(series, "impeccable_funnel_stage_seconds_total{") {
			stageSecs += v
		}
	}
	if misses == 0 {
		t.Error("score-cache misses are all zero after a cold campaign")
	}
	if stageSecs == 0 {
		t.Error("funnel stage seconds are all zero after a completed campaign")
	}
	// The scrape itself carried a latency sample for its route.
	if _, ok := vals[`impeccable_http_request_seconds_count{route="/metrics"}`]; !ok {
		// The count appears only on a later scrape of this scrape; the
		// submit route must be there though.
		if _, ok := vals[`impeccable_http_request_seconds_count{route="/api/v1/campaigns"}`]; !ok {
			t.Error("no latency histogram for the submit route")
		}
	}
}
