package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitdb/internal/stats"
)

// Client is a typed HTTP client for the live server's API, used by the
// load-generator tool and by applications that talk to a remote unitd.
//
// With WithRetry, Query transparently retries transient failures —
// network errors and 429 rejections (honoring the server's Retry-After
// hint). Update is a non-idempotent write and is NEVER retried: a retry
// after an ambiguous network failure could apply the same feed delivery
// twice.
type Client struct {
	base     string
	http     *http.Client
	retry    *retryPolicy  // nil = no retries
	retryCap time.Duration // WithRetryCap ceiling; 0 = the 30 s default

	// Retry accounting for Query calls (lock-free; Update is excluded).
	attempts atomic.Int64 // HTTP attempts, first tries included
	retries  atomic.Int64 // attempts beyond the first per Query call
	giveups  atomic.Int64 // Query calls that exhausted every retry still failing
}

// RetryCounts is a snapshot of a client's Query retry accounting: the
// amplification a retry policy inflicted on the server is
// Attempts / (Attempts - Retries), and Giveups counts the users who
// walked away unanswered.
type RetryCounts struct {
	Attempts int64
	Retries  int64
	Giveups  int64
}

// RetryCounts returns a snapshot of the client's retry accounting.
func (c *Client) RetryCounts() RetryCounts {
	return RetryCounts{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Giveups:  c.giveups.Load(),
	}
}

// retryPolicy is seeded exponential backoff with full jitter.
type retryPolicy struct {
	max   int           // retry attempts after the first try
	base  time.Duration // first backoff ceiling; doubles per attempt
	cap   time.Duration // backoff ceiling
	sleep func(time.Duration)

	mu  sync.Mutex
	rng *stats.RNG // guarded by mu
}

// delay draws the pause before retry attempt n (0-based). A positive
// server hint (Retry-After) overrides the jittered draw.
func (p *retryPolicy) delay(n int, hint time.Duration) time.Duration {
	if hint > 0 {
		if hint > p.cap {
			hint = p.cap
		}
		return hint
	}
	ceil := p.base << n
	if ceil > p.cap || ceil <= 0 {
		ceil = p.cap
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Float64() * float64(ceil))
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetry makes Query retry up to maxRetries times on network errors
// and 429 rejections, sleeping a seeded exponentially-growing jittered
// backoff (starting at baseDelay, capped at 30 s unless WithRetryCap
// lowers it) between attempts; a Retry-After hint from the server takes
// precedence over the drawn delay but never exceeds the same cap. The
// seed makes a client's backoff sequence reproducible. Update is never
// retried regardless of this option.
func WithRetry(maxRetries int, baseDelay time.Duration, seed uint64) ClientOption {
	return func(c *Client) {
		if maxRetries <= 0 {
			c.retry = nil
			return
		}
		if baseDelay <= 0 {
			baseDelay = 100 * time.Millisecond
		}
		c.retry = &retryPolicy{
			max:   maxRetries,
			base:  baseDelay,
			cap:   30 * time.Second,
			sleep: time.Sleep,
			rng:   stats.NewRNG(seed),
		}
	}
}

// WithRetryCap caps both the honored Retry-After hint and the drawn
// backoff at ceiling, overriding the 30 s default — a misbehaving (or
// merely conservative) server hint can then never stall a retry loop for
// longer than the client is willing to wait. Order-independent with
// WithRetry.
func WithRetryCap(ceiling time.Duration) ClientOption {
	return func(c *Client) {
		c.retryCap = ceiling
	}
}

// NewClient creates a client for the server at base (e.g.
// "http://localhost:8080"). httpClient may be nil for a default with a
// 30 s timeout.
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{base: strings.TrimRight(base, "/"), http: httpClient}
	for _, opt := range opts {
		opt(c)
	}
	if c.retry != nil && c.retryCap > 0 {
		c.retry.cap = c.retryCap
	}
	return c
}

// Query submits a user query; the returned response carries the outcome
// regardless of the HTTP status code (206/429/504 encode DSF, rejection
// and DMF respectively). Queries are idempotent reads, so with WithRetry
// a network error or a 429 rejection is retried after a backoff pause.
func (c *Client) Query(req QueryRequest) (QueryResponse, error) {
	attempts := 1
	if c.retry != nil {
		attempts += c.retry.max
	}
	var (
		out     QueryResponse
		lastErr error
	)
	for attempt := 0; attempt < attempts; attempt++ {
		var hint time.Duration
		c.attempts.Add(1)
		if attempt > 0 {
			c.retries.Add(1)
		}
		out, hint, lastErr = c.queryOnce(req)
		retryable := lastErr != nil || out.Outcome == OutcomeRejected
		if !retryable {
			break
		}
		if attempt == attempts-1 {
			if c.retry != nil {
				c.giveups.Add(1)
			}
			break
		}
		c.retry.sleep(c.retry.delay(attempt, hint))
	}
	return out, lastErr
}

// queryOnce performs a single query attempt. hint carries the server's
// Retry-After on a 429, 0 otherwise; a non-nil error means the attempt
// never produced an outcome (network failure, malformed response).
func (c *Client) queryOnce(req QueryRequest) (QueryResponse, time.Duration, error) {
	var scratch [512]byte
	b := append(scratch[:0], c.base...)
	b = append(b, "/query?items="...)
	for i, it := range req.Items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(it), 10)
	}
	if req.Deadline > 0 {
		b = appendQueryDuration(append(b, "&deadline="...), req.Deadline)
	}
	if req.Work > 0 {
		b = appendQueryDuration(append(b, "&work="...), req.Work)
	}
	if req.Freshness > 0 {
		b = appendQueryFloat(append(b, "&freshness="...), req.Freshness)
	}
	resp, err := c.http.Get(string(b))
	if err != nil {
		return QueryResponse{}, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent,
		http.StatusTooManyRequests, http.StatusGatewayTimeout:
		var out QueryResponse
		err := readWire(resp.Body, func(b []byte) (err error) {
			out, err = decodeQueryResponse(b)
			return err
		})
		if err != nil {
			return QueryResponse{}, 0, fmt.Errorf("server: decode query response: %w", err)
		}
		var hint time.Duration
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		return out, hint, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return QueryResponse{}, 0, fmt.Errorf("server: query failed: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
}

// Update submits an update-feed write; it reports whether the server
// applied it (false = dropped by modulation). Updates are not idempotent
// and are never retried, even under WithRetry: after an ambiguous failure
// a retry could deliver the same write twice.
func (c *Client) Update(req UpdateRequest) (bool, error) {
	var scratch [128]byte
	b := append(scratch[:0], c.base...)
	b = strconv.AppendInt(append(b, "/update?item="...), int64(req.Item), 10)
	b = appendQueryFloat(append(b, "&value="...), req.Value)
	if req.Work > 0 {
		b = appendQueryDuration(append(b, "&work="...), req.Work)
	}
	resp, err := c.http.Post(string(b), "", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("server: update failed: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
	var applied bool
	err = readWire(resp.Body, func(b []byte) (err error) {
		applied, err = decodeUpdateAck(b)
		return err
	})
	if err != nil {
		return false, fmt.Errorf("server: decode update response: %w", err)
	}
	return applied, nil
}

// Stats fetches the server's accounting snapshot.
func (c *Client) Stats() (Stats, error) {
	return c.stats("")
}

// StatsWindow fetches the snapshot with the windowed USM over the given
// trailing horizon (GET /stats?window=...).
func (c *Client) StatsWindow(window time.Duration) (Stats, error) {
	if window <= 0 {
		return c.stats("")
	}
	return c.stats("?window=" + url.QueryEscape(window.String()))
}

func (c *Client) stats(query string) (Stats, error) {
	resp, err := c.http.Get(c.base + "/stats" + query)
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return Stats{}, fmt.Errorf("server: stats failed: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
	var out Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Stats{}, fmt.Errorf("server: decode stats: %w", err)
	}
	return out, nil
}

// Metrics fetches the raw Prometheus text exposition from GET /metrics.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server: metrics failed: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("server: read metrics: %w", err)
	}
	return string(body), nil
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
