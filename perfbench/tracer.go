package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// call is one HTTP exchange seen by the tracer, server or client side.
type call struct {
	start, end time.Time
	status     int
	reqBytes   int64
	job        string // lease grants and completions only
}

func (c call) ms() float64 { return float64(c.end.Sub(c.start)) / float64(time.Millisecond) }

// tracer records spans from the benchmark's side of two layer
// boundaries: around the coordinator's HTTP handler (server time,
// status and request bytes per route) and around the worker's HTTP
// client (lease and complete round trips). Nothing inside the program
// is instrumented.
type tracer struct {
	mu       sync.Mutex
	server   map[string][]call // by route, e.g. "POST /api/v1/worker/lease"
	client   map[string][]call // by URL path
	overhead time.Duration     // time spent recording, summed
}

func newTracer() *tracer {
	return &tracer{server: map[string][]call{}, client: map[string][]call{}}
}

// reset drops everything recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.server, t.client, t.overhead = map[string][]call{}, map[string][]call{}, 0
	t.mu.Unlock()
}

// add records c; the time since begin, plus extra, is recording cost.
func (t *tracer) add(m map[string][]call, key string, c call, begin time.Time, extra time.Duration) {
	t.mu.Lock()
	m[key] = append(m[key], c)
	t.overhead += time.Since(begin) + extra
	t.mu.Unlock()
}

func (t *tracer) calls(m map[string][]call, key string) []call {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]call(nil), m[key]...)
}

// route names a request by method and path, with job IDs folded.
func route(r *http.Request) string {
	parts := strings.Split(r.URL.Path, "/")
	for i, p := range parts {
		if strings.HasPrefix(p, "job-") {
			parts[i] = "{id}"
		}
	}
	return r.Method + " " + strings.Join(parts, "/")
}

func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		t.add(t.server, route(r), call{start: start, end: end, status: sw.status, reqBytes: r.ContentLength}, end, 0)
	})
}

// statusWriter records the response status; it keeps the event stream
// working by passing flushes through.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) { s.status = code; s.ResponseWriter.WriteHeader(code) }

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		peek := time.Now()
		job := ""
		if strings.HasSuffix(req.URL.Path, "/worker/complete") {
			job = completeJobID(req)
		}
		start := time.Now()
		resp, err := next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Read the (small) protocol response here so the round trip
		// includes its transfer, and so a lease grant names its job.
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		end := time.Now()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(req.URL.Path, "/worker/lease") && resp.StatusCode == http.StatusOK {
			var g struct {
				JobID string `json:"job_id"`
			}
			_ = json.Unmarshal(body, &g)
			job = g.JobID
		}
		t.add(t.client, req.URL.Path, call{start: start, end: end, status: resp.StatusCode,
			reqBytes: req.ContentLength, job: job}, end, start.Sub(peek))
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// completeJobID reads the job ID from the head of a complete request's
// body; service.CompleteRequest encodes job_id before the result.
func completeJobID(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	rc, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer rc.Close()
	head := make([]byte, 512)
	n, _ := io.ReadFull(rc, head)
	_, rest, ok := bytes.Cut(head[:n], []byte(`"job_id":"`))
	if !ok {
		return ""
	}
	id, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(id)
}
