package flownet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"flownet/internal/server"
)

// Wire types of the flownetd HTTP/JSON API (see internal/server and
// cmd/flownetd): the client below decodes exactly what the server encodes.
type (
	// FlowResult is one GET /flow answer.
	FlowResult = server.FlowResult
	// BatchRequest is the POST /flow/batch body.
	BatchRequest = server.BatchRequest
	// BatchResult is the POST /flow/batch answer.
	BatchResult = server.BatchResult
	// SeedFlowResult is one per-seed outcome inside a BatchResult.
	SeedFlowResult = server.SeedFlowResult
	// PatternResult is one GET /patterns answer.
	PatternResult = server.PatternResult
	// NetworkInfo describes one loaded network.
	NetworkInfo = server.NetworkInfo
	// EndpointStats are per-endpoint counters of GET /stats.
	EndpointStats = server.EndpointStats
	// StatsResult is the GET /stats answer.
	StatsResult = server.StatsResult
	// IngestInteraction is one streamed interaction in a POST /ingest body.
	IngestInteraction = server.IngestInteraction
	// IngestRequest is the POST /ingest body.
	IngestRequest = server.IngestRequest
	// IngestResult is the POST /ingest answer.
	IngestResult = server.IngestResult
	// CreateNetworkRequest is the POST /networks body.
	CreateNetworkRequest = server.CreateNetworkRequest
	// CreateNetworkResult is the POST /networks answer.
	CreateNetworkResult = server.CreateNetworkResult
	// StoreStats are the store-wide durability counters inside a
	// StatsResult (WAL appends/fsyncs, snapshots, recoveries).
	StoreStats = server.StoreStats
	// DurabilityInfo is one network's durability state inside a
	// HealthzResult (pending WAL records/bytes, last snapshot time).
	DurabilityInfo = server.DurabilityInfo
	// HealthzResult is the GET /healthz answer.
	HealthzResult = server.HealthzResult
)

// FlowQueryOptions are the optional knobs of Client.Flow and
// Client.SeedFlow. The zero value selects the server defaults.
type FlowQueryOptions struct {
	// Hops bounds the §6.2 returning-path extraction (seed queries only;
	// 0 = server default 3).
	Hops int
	// MaxInteractions caps extracted subgraphs (seed queries only; 0 =
	// server default 10000, negative = no cap).
	MaxInteractions int
	// WindowFrom / WindowTo restrict flow to interactions inside the
	// inclusive time window; nil leaves the corresponding side unbounded.
	WindowFrom, WindowTo *float64
}

// PatternQueryOptions are the optional knobs of Client.Patterns. The zero
// value searches exhaustively with the server's worker pool.
type PatternQueryOptions struct {
	// MaxInstances truncates the search (0 = exhaustive).
	MaxInstances int64
	// MinPaths filters relaxed-pattern instances by bundled path count.
	MinPaths int
	// Workers requests a per-query worker bound (clamped by the server).
	Workers int
}

// DefaultTimeout is the end-to-end timeout of the http.Client that
// NewClient installs. A client without one hangs forever on a stalled
// server or a black-holed connection; callers needing a different bound
// (or none) pass their own client via WithHTTPClient.
const DefaultTimeout = 30 * time.Second

// RetryPolicy configures how the client retries transient failures:
// transport errors and 429 / 503 responses (overload shedding, read-only
// shards pending repair — exactly the statuses flownetd marks with a
// Retry-After hint, which the policy honors). Only idempotent requests are
// retried: every GET, and POST /flow/batch, which computes without writing.
// POST /ingest and POST /networks are never retried — after a transport
// error the outcome is unknown, and replaying an append would duplicate
// interactions.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (0 = DefaultRetryPolicy.MaxAttempts; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt with jitter in [delay/2, delay] to decorrelate clients
	// (0 = DefaultRetryPolicy.BaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the backoff, including server Retry-After hints
	// (0 = DefaultRetryPolicy.MaxDelay).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy NewClient installs: a handful of quick
// attempts that ride out a shed burst or a repair snapshot without turning
// a genuinely down server into minutes of blocking.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return p
}

// delay computes the sleep before retry number retry (1-based), preferring
// the server's Retry-After hint when it is longer than the backoff.
func (p RetryPolicy) delay(retry int, hint time.Duration) time.Duration {
	d := p.BaseDelay << (retry - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	// Full jitter on the upper half: uniformly in [d/2, d].
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// HTTPError is the error returned for any non-200 response, exposing the
// status code and the server's Retry-After hint (zero when absent). Use
// errors.As to inspect it.
type HTTPError struct {
	Status  int
	Message string // server-provided error text, or the raw body
	// RetryAfter is the parsed Retry-After hint of 429/503 answers.
	RetryAfter time.Duration
	structured bool // Message came from the JSON error envelope
}

func (e *HTTPError) Error() string {
	if e.structured {
		return fmt.Sprintf("flownetd: %s (HTTP %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("flownetd: HTTP %d: %s", e.Status, e.Message)
}

// Attempt describes one HTTP exchange as seen by the client, reported to
// the WithObserver hook once per attempt — retries included, so a request
// that rides out two sheds reports three attempts. Status is the HTTP
// status when a response arrived, 0 when the exchange died in transport.
// Err is nil on success and otherwise carries the failure: the *HTTPError
// for non-200 statuses, or the transport/decode error.
type Attempt struct {
	Method string
	Path   string // URL path only, no query — safe to use as a label
	Status int    // HTTP status, 0 when the exchange died in transport
	Err    error  // nil exactly when Status is 200
	// CacheStatus is the X-Flownet-Cache response header ("hit" or "miss";
	// empty on routes without the cache and on errors, HTTP or transport).
	CacheStatus string
	// Duration is the attempt's wall-clock time: request sent to response
	// body fully read.
	Duration time.Duration
}

// Client is a minimal client for a flownetd server. The zero value is not
// usable; construct with NewClient. Methods are safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	observe func(Attempt)
}

// NewClient returns a client for the flownetd instance at baseURL (e.g.
// "http://localhost:8080"), with a DefaultTimeout-bounded http.Client and
// DefaultRetryPolicy retries for idempotent requests.
func NewClient(baseURL string) *Client {
	return &Client{
		base:  strings.TrimSuffix(baseURL, "/"),
		hc:    &http.Client{Timeout: DefaultTimeout},
		retry: DefaultRetryPolicy,
	}
}

// WithHTTPClient replaces the underlying *http.Client (timeouts, proxies,
// test transports) and returns c for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// WithRetryPolicy replaces the retry policy and returns c for chaining.
// RetryPolicy{MaxAttempts: 1} disables retries entirely.
func (c *Client) WithRetryPolicy(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// WithObserver installs fn as the per-attempt telemetry hook and returns c
// for chaining. fn runs synchronously on the calling goroutine after every
// HTTP attempt (including each retry), so a load generator measuring
// client-side latency sees every exchange, not just the final outcome. fn
// must be fast and safe for concurrent use when the client is shared.
func (c *Client) WithObserver(fn func(Attempt)) *Client {
	c.observe = fn
	return c
}

// Flow computes the maximum flow from source to sink in the named network
// (network may be empty when the server has exactly one loaded).
func (c *Client) Flow(ctx context.Context, network string, source, sink VertexID, opts *FlowQueryOptions) (FlowResult, error) {
	q := url.Values{}
	if network != "" {
		q.Set("net", network)
	}
	q.Set("source", strconv.Itoa(int(source)))
	q.Set("sink", strconv.Itoa(int(sink)))
	addFlowOptions(q, opts, false)
	var res FlowResult
	err := c.get(ctx, "/flow", q, &res)
	return res, err
}

// SeedFlow computes the §6.2 returning-path flow around a seed vertex.
func (c *Client) SeedFlow(ctx context.Context, network string, seed VertexID, opts *FlowQueryOptions) (FlowResult, error) {
	q := url.Values{}
	if network != "" {
		q.Set("net", network)
	}
	q.Set("seed", strconv.Itoa(int(seed)))
	addFlowOptions(q, opts, true)
	var res FlowResult
	err := c.get(ctx, "/flow", q, &res)
	return res, err
}

// BatchFlowSeeds runs the per-seed batch experiment on the server.
func (c *Client) BatchFlowSeeds(ctx context.Context, req BatchRequest) (BatchResult, error) {
	var res BatchResult
	err := c.post(ctx, "/flow/batch", req, &res, true)
	return res, err
}

// Patterns runs one pattern search ("P1".."P6", "RP1".."RP3") in mode "pb"
// (precomputed tables; the default when mode is empty) or "gb".
func (c *Client) Patterns(ctx context.Context, network, patternName, mode string, opts *PatternQueryOptions) (PatternResult, error) {
	q := url.Values{}
	if network != "" {
		q.Set("net", network)
	}
	q.Set("pattern", patternName)
	if mode != "" {
		q.Set("mode", mode)
	}
	if opts != nil {
		if opts.MaxInstances > 0 {
			q.Set("max", strconv.FormatInt(opts.MaxInstances, 10))
		}
		if opts.MinPaths > 0 {
			q.Set("minpaths", strconv.Itoa(opts.MinPaths))
		}
		if opts.Workers != 0 {
			q.Set("workers", strconv.Itoa(opts.Workers))
		}
	}
	var res PatternResult
	err := c.get(ctx, "/patterns", q, &res)
	return res, err
}

// Ingest appends a time-ordered interaction batch to a loaded network
// (POST /ingest). The server must run with ingestion enabled (flownetd
// -allow-ingest); the returned result reports what was appended, parked
// and the network's new generation.
func (c *Client) Ingest(ctx context.Context, req IngestRequest) (IngestResult, error) {
	var res IngestResult
	err := c.post(ctx, "/ingest", req, &res, false)
	return res, err
}

// CreateNetwork registers a new empty network with the given vertex count
// (POST /networks), ready for Ingest. Requires -allow-ingest.
func (c *Client) CreateNetwork(ctx context.Context, name string, vertices int) (CreateNetworkResult, error) {
	var res CreateNetworkResult
	err := c.post(ctx, "/networks", CreateNetworkRequest{Name: name, Vertices: vertices}, &res, false)
	return res, err
}

// Networks lists the server's loaded networks.
func (c *Client) Networks(ctx context.Context) (map[string]NetworkInfo, error) {
	var res map[string]NetworkInfo
	err := c.get(ctx, "/networks", nil, &res)
	return res, err
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (StatsResult, error) {
	var res StatsResult
	err := c.get(ctx, "/stats", nil, &res)
	return res, err
}

// Healthz fetches liveness plus every network's durability state — the
// checkpoint lag an operator watches on a flownetd running with -data-dir.
func (c *Client) Healthz(ctx context.Context) (HealthzResult, error) {
	var res HealthzResult
	err := c.get(ctx, "/healthz", nil, &res)
	return res, err
}

func addFlowOptions(q url.Values, opts *FlowQueryOptions, seedMode bool) {
	if opts == nil {
		return
	}
	if seedMode {
		if opts.Hops != 0 {
			q.Set("hops", strconv.Itoa(opts.Hops))
		}
		if opts.MaxInteractions != 0 {
			q.Set("maxinteractions", strconv.Itoa(opts.MaxInteractions))
		}
	}
	if opts.WindowFrom != nil {
		q.Set("from", strconv.FormatFloat(*opts.WindowFrom, 'g', -1, 64))
	}
	if opts.WindowTo != nil {
		q.Set("to", strconv.FormatFloat(*opts.WindowTo, 'g', -1, 64))
	}
}

// post issues a POST. retryable must be true only for requests that are
// safe to replay (/flow/batch computes without writing); ingestion and
// network creation pass false because a transport error leaves the outcome
// unknown and a replay would duplicate the write.
func (c *Client) post(ctx context.Context, path string, in, out any, retryable bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, c.base+path, body, out, retryable)
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return c.do(ctx, http.MethodGet, u, nil, out, true)
}

// maxResponseBytes bounds how much of a response body the client reads; a
// body at or over the bound is reported as an explicit error rather than
// silently truncated into a JSON decode failure.
const maxResponseBytes = 64 << 20

// do runs one request to completion, retrying transient failures under the
// client's RetryPolicy when retryable is true. Each attempt rebuilds the
// *http.Request from scratch (a consumed body reader cannot be resent).
func (c *Client) do(ctx context.Context, method, u string, body []byte, out any, retryable bool) error {
	p := c.retry.withDefaults()
	attempts := p.MaxAttempts
	if !retryable || attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		var br io.Reader
		if body != nil {
			br = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, br)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		lastErr = c.doOnce(req, out)
		if lastErr == nil || attempt >= attempts || !transientError(lastErr) {
			return lastErr
		}
		select {
		case <-time.After(p.delay(attempt, retryAfterHint(lastErr))):
		case <-ctx.Done():
			// The caller gave up while we were backing off; its reason
			// trumps the transient failure we were about to retry.
			return ctx.Err()
		}
	}
}

// transientError reports whether err is worth retrying: a transport-level
// failure (connection refused or reset, a timed-out exchange) or a response
// the server explicitly marked retryable (429, 503 — shed load, read-only
// shard). Context cancellation is the caller's decision, never retried;
// other HTTP statuses (400s, 500, 504) are authoritative answers.
func transientError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status == http.StatusTooManyRequests || he.Status == http.StatusServiceUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// retryAfterHint extracts the server's Retry-After hint, zero when absent.
func retryAfterHint(err error) time.Duration {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// parseRetryAfter parses a Retry-After header: delta-seconds or HTTP-date.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// doOnce performs a single exchange, decodes the answer into out, and
// reports the attempt to the observer (when installed).
func (c *Client) doOnce(req *http.Request, out any) error {
	var (
		status int
		cache  string
		start  = time.Now()
	)
	err := func() error {
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		cache = resp.Header.Get("X-Flownet-Cache")
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
		if err != nil {
			return err
		}
		if len(body) > maxResponseBytes {
			return fmt.Errorf("flownetd: response body exceeds %d bytes", maxResponseBytes)
		}
		if resp.StatusCode != http.StatusOK {
			he := &HTTPError{
				Status:     resp.StatusCode,
				Message:    string(bytes.TrimSpace(body)),
				RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
			var eb struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
				he.Message, he.structured = eb.Error, true
			}
			return he
		}
		return json.Unmarshal(body, out)
	}()
	if c.observe != nil {
		c.observe(Attempt{
			Method:      req.Method,
			Path:        req.URL.Path,
			Status:      status,
			Err:         err,
			CacheStatus: cache,
			Duration:    time.Since(start),
		})
	}
	return err
}
