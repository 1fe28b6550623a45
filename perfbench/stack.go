package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"impeccable/internal/service"
	"impeccable/internal/service/worker"
)

// stack is one coordinator (remote-only, journaled to dir) served over
// loopback HTTP, with one worker pulling from it in the same process.
type stack struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	url    string
	wk     *worker.Worker
	stopWk context.CancelFunc
	wkDone chan struct{}
}

// startStack brings a stack up and returns once /healthz answers. With
// withWorker false it is the coordinator alone (the restart check). A
// non-nil tracer wraps the handler and the worker's HTTP client.
func startStack(dir string, withWorker bool, tr *tracer) (*stack, error) {
	svc, err := service.Open(service.Options{RemoteOnly: true, StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown()
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	s := &stack{dir: dir, svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }()
	if withWorker {
		opts := worker.Options{
			Server:          s.url,
			ID:              "bench-worker",
			CampaignWorkers: runtime.NumCPU(),
			Logf:            func(string, ...any) {},
		}
		if tr != nil {
			opts.HTTPClient = &http.Client{Transport: tr.transport(newTransport()), Timeout: 10 * time.Minute}
		}
		s.wk = worker.New(opts)
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWk, s.wkDone = cancel, make(chan struct{})
		go func() { defer close(s.wkDone); _ = s.wk.Run(ctx) }()
	}
	if err := waitHealthy(s.url); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// stopWorker stops the worker and waits for it; a campaign it was
// running is abandoned at its next cancellation point.
func (s *stack) stopWorker() {
	if s.wk != nil {
		s.stopWk()
		<-s.wkDone
		s.wk = nil
	}
}

func (s *stack) close() {
	s.stopWorker()
	_ = s.srv.Close()
	s.svc.Shutdown()
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

func waitHealthy(url string) error {
	c := &http.Client{Timeout: 5 * time.Second, Transport: newTransport()}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator at %s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobRecord is one closed-loop job as its tenant client saw it.
type jobRecord struct {
	tenant   string
	inst     int
	id       string
	submit0  time.Time // POST sent
	submit1  time.Time // POST answered
	done     time.Time // terminal event read from the SSE stream
	result1  time.Time // /result body read
	state    service.JobState
	snap     service.JobSnapshot
	summary  service.ResultSummary
	inFlight bool  // the window closed before the job finished
	err      error // the job failed or a call to the service did
}

func (r *jobRecord) latency() time.Duration { return r.result1.Sub(r.submit0) }

// client is one tenant submitting over HTTP.
type client struct {
	base   string
	tenant string
	http   *http.Client
}

func newClient(base, tenant string) *client {
	return &client{base: base, tenant: tenant, http: &http.Client{Transport: newTransport()}}
}

// runJob submits req, follows the job's SSE stream to a terminal state
// (ctx bounds only this wait), then reads its status and result.
// submitted is called once the submit call has returned.
func (c *client) runJob(ctx context.Context, req service.SubmitRequest, inst int, submitted func()) *jobRecord {
	rec := &jobRecord{tenant: c.tenant, inst: inst, submit0: time.Now()}
	req.Tenant = c.tenant
	var snap service.JobSnapshot
	err := c.call(context.Background(), http.MethodPost, "/api/v1/campaigns", req, http.StatusAccepted, &snap)
	rec.submit1 = time.Now()
	submitted()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.id = snap.ID
	state, err := c.follow(ctx, rec.id)
	if err != nil {
		if ctx.Err() != nil {
			rec.inFlight = true
			return rec
		}
		rec.err = fmt.Errorf("events %s: %w", rec.id, err)
		return rec
	}
	rec.done, rec.state = time.Now(), state
	if err := c.call(context.Background(), http.MethodGet, "/api/v1/campaigns/"+rec.id, nil, http.StatusOK, &rec.snap); err != nil {
		rec.err = fmt.Errorf("status %s: %w", rec.id, err)
		return rec
	}
	if state != service.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.id, state, rec.snap.Error)
		return rec
	}
	if err := c.call(context.Background(), http.MethodGet, "/api/v1/campaigns/"+rec.id+"/result", nil, http.StatusOK, &rec.summary); err != nil {
		rec.err = fmt.Errorf("result %s: %w", rec.id, err)
		return rec
	}
	rec.result1 = time.Now()
	return rec
}

// follow reads the job's event stream until a terminal state event.
func (c *client) follow(ctx context.Context, id string) (service.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream ended before a terminal state: %w", err)
		}
		data, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "data: ")
		if !ok {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type == "state" && ev.State.Terminal() {
			return ev.State, nil
		}
	}
}

func (c *client) cancel(id string) error {
	return c.call(context.Background(), http.MethodDelete, "/api/v1/campaigns/"+id, nil, 0, nil)
}

// call sends one JSON request; want 0 accepts any 2xx status.
func (c *client) call(ctx context.Context, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if (want != 0 && resp.StatusCode != want) || (want == 0 && resp.StatusCode/100 != 2) {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// closedLoop runs the tenants' queues against base until ctx ends: each
// tenant submits its next request only after the previous one's result
// came back. order[0] submits first; order[1] starts after that submit
// returned, so which tenant leads is the plan's, not the scheduler's.
// finished, when non-nil, sees each job that came back done, in order.
func closedLoop(ctx context.Context, base string, refs *refSet, p plan, finished func(*jobRecord)) []*jobRecord {
	var (
		mu      sync.Mutex
		records []*jobRecord
		wg      sync.WaitGroup
	)
	first := make(chan struct{})
	release := sync.OnceFunc(func() { close(first) })
	for k, name := range p.order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base, name)
			defer c.http.CloseIdleConnections()
			defer release()
			if k == 1 {
				<-first
			}
			for _, inst := range p.queues[name] {
				if ctx.Err() != nil {
					break
				}
				rec := c.runJob(ctx, refs.request(inst), inst, release)
				mu.Lock()
				records = append(records, rec)
				if finished != nil && !rec.inFlight && rec.err == nil {
					finished(rec)
				}
				mu.Unlock()
				if rec.inFlight {
					if err := c.cancel(rec.id); err != nil {
						rec.err = fmt.Errorf("cancel %s: %w", rec.id, err)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	return records
}
