package server

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"flownet/internal/hist"
)

// endpointMetrics hold the per-endpoint counters surfaced at /stats and
// /metrics. All fields are atomics (the histogram internally so); the
// struct is shared by every request to its route.
type endpointMetrics struct {
	requests  atomic.Uint64
	errors    atomic.Uint64
	cacheHits atomic.Uint64
	shed      atomic.Uint64
	// latency holds the fixed-bucket handler wall-clock histogram and,
	// inside it, the exact nanosecond sum — the source of truth for every
	// latency figure /stats and /metrics export.
	latency *hist.Histogram
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{latency: hist.NewDefault()}
}

// record counts one finished request: the route's request counter, the
// error counter (4xx/5xx — except shed 503s: deliberate load-shedding is
// its own counter, not an error an alert should page on), and the latency
// histogram. Counter order matters: the request lands before its latency,
// pairing with snapshot's read order below.
func (m *endpointMetrics) record(status int, shed bool, d time.Duration) {
	m.requests.Add(1)
	if status >= 400 && !shed {
		m.errors.Add(1)
	}
	m.latency.Observe(d)
}

// snapshot reads the counters into the /stats wire shape. The latency
// histogram is read *first*, the request counter after: record() counts a
// request before observing its latency, so every observation in the
// histogram snapshot already has its request in Requests — the derived
// average can only under-report mid-request, never inflate. (Reading
// requests first allowed the opposite interleaving: a latency observed
// after the request load but before the histogram read would inflate the
// average above truth.)
func (m *endpointMetrics) snapshot() EndpointStats {
	ls := m.latency.Snapshot()
	s := EndpointStats{
		Requests:     m.requests.Load(),
		Errors:       m.errors.Load(),
		CacheHits:    m.cacheHits.Load(),
		Shed:         m.shed.Load(),
		LatencySumNs: ls.SumNs,
		LatencyCount: ls.Count,
		P50LatencyMs: ls.Quantile(0.50) * 1e3,
		P95LatencyMs: ls.Quantile(0.95) * 1e3,
		P99LatencyMs: ls.Quantile(0.99) * 1e3,
	}
	if s.Requests > 0 {
		s.AvgLatencyMs = float64(ls.SumNs) / float64(s.Requests) / 1e6
	}
	return s
}

// statusRecorder captures the status code a handler wrote so the metrics
// wrapper can count errors, whether anything was written at all so the
// panic recovery knows if a 500 can still be sent, and whether the 503 was
// a deliberate shed (marked by the admission guard) so load-shedding never
// inflates the error rate.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
	shed   bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the request / error / latency counters of
// its route and with panic recovery: a panicking handler (a violated
// invariant in the flow machinery, a malformed-input edge case) becomes a
// logged 500 instead of killing the whole process — one poisoned query must
// not take down every loaded network. The stack goes to the log; /stats
// counts the panics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	m := s.metrics[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				log.Printf("flownetd: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !rec.wrote {
					rec.status = http.StatusInternalServerError
					writeError(rec, http.StatusInternalServerError, "internal error (panic recovered; see server log)")
				}
				// Headers already sent: the connection is poisoned mid-body;
				// there is nothing valid left to write. The deferred counters
				// below still run.
			}
			m.record(rec.status, rec.shed, time.Since(t0))
		}()
		h(rec, r)
	})
}

// retryAfterSeconds is the Retry-After hint on 503s (shed load, read-only
// shards). Shed queries are retryable immediately once a slot frees; 1s is
// the floor the header's integral format allows.
const retryAfterSeconds = "1"

// guard wraps a query handler (/flow, /flow/batch, /patterns) with the two
// overload protections:
//
// Admission control: at most Config.MaxInFlight guarded requests execute at
// once; excess load is shed immediately with 503 + Retry-After instead of
// queueing. An unbounded queue converts overload into unbounded memory
// growth and rising latency for everyone; shedding keeps the served
// requests fast and gives clients an honest, retryable signal. Health and
// stats endpoints are deliberately unguarded — they must answer precisely
// when the server is saturated.
//
// Deadline: each admitted request runs under Config.QueryTimeout (when
// set). Handlers thread the request context through batch and pattern
// evaluation and poll it at stage boundaries; expiry surfaces as 504 (see
// serveQuery) and the partial result is never cached.
func (s *Server) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics[route]
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				m.shed.Add(1)
				// Mark the recorder (guard always runs inside instrument) so
				// the deliberate 503 lands in Shed, not Errors: the request
				// was rejected by design, and counting it as an error would
				// page an alerting rule on the server doing its job.
				if rec, ok := w.(*statusRecorder); ok {
					rec.shed = true
				}
				w.Header().Set("Retry-After", retryAfterSeconds)
				writeError(w, http.StatusServiceUnavailable,
					"server at capacity (%d queries in flight); retry shortly", s.cfg.MaxInFlight)
				return
			}
		}
		if s.cfg.QueryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}
