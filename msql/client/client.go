// Package client is the Go client for msqld, the msql query server.
// It speaks the JSON wire protocol, reconstructs the server's
// structured msql.Error taxonomy (codes, phases, byte offsets, hints —
// errors.Is(err, msql.ErrTimeout) works across the wire), and retries
// overload responses with capped exponential backoff plus jitter.
//
// The retry contract mirrors the server's shedding contract. Retried
// with backoff are: HTTP 429 (overload shed) and 503 (draining /
// unavailable), because those are transient by construction;
// connection-refused dial failures, because no request reached a
// server; and — only for requests marked WithIdempotent — connection
// resets and unexpected EOFs, where the request may have executed but
// re-executing a read is harmless. Every deterministic failure —
// parse, bind, expand, runtime, timeout — is surfaced on the first
// attempt, and a non-idempotent write that dies mid-flight is never
// blindly resent.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/measures-sql/msql/internal/wire"
)

// Backoff tunes the retry schedule for 429/503 responses.
type Backoff struct {
	// Attempts is the total number of tries, first included (default 4).
	Attempts int
	// Base is the pre-jitter delay before the first retry; it doubles
	// per retry (default 50ms).
	Base time.Duration
	// Max caps every delay, after jitter and Retry-After (default 2s).
	Max time.Duration
	// Seed makes the jitter sequence reproducible; 0 seeds from the
	// global source.
	Seed int64
}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	return b
}

// Client is a msqld client; safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	backoff Backoff

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBackoff replaces the retry policy.
func WithBackoff(b Backoff) Option { return func(c *Client) { c.backoff = b } }

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:7433").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	c.backoff = c.backoff.withDefaults()
	seed := c.backoff.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	c.rng = rand.New(rand.NewSource(seed))
	return c
}

// Result is one statement's rows as they came off the wire. Values are
// JSON-native: nil, bool, float64 for every number (never int64), and
// strings; Types names the SQL type of each column. Rows are
// capacity-limited, so appending to one never writes into the next.
type Result struct {
	Columns []string
	Types   []string
	Rows    [][]any
	// Message is set instead of rows when the final statement was
	// DDL/DML ("created view …").
	Message string
	// RequestID is the correlation ID this request carried: the one set
	// with WithRequestID, or the client-generated one. The same ID
	// appears in the server's access log, the query's tracer spans, and
	// msql_stats.active_queries while the statement runs.
	RequestID string
}

// requestOpts is one request's wire body plus client-side knobs.
type requestOpts struct {
	req        wire.QueryRequest
	idempotent bool
}

// QueryOption adjusts one request.
type QueryOption func(*requestOpts)

// WithTimeout asks the server for a per-statement deadline; the server
// clamps it to its configured maximum.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *requestOpts) { o.req.TimeoutMillis = int64(d / time.Millisecond) }
}

// WithRequestID sets the request correlation ID; without it the client
// generates one per request, so every query is traceable end to end.
func WithRequestID(id string) QueryOption {
	return func(o *requestOpts) { o.req.RequestID = id }
}

// WithIdempotent marks the request as a side-effect-free read, widening
// the retry contract to connection resets and unexpected EOFs: the
// request may have reached the server before the connection died, but
// running a read twice is harmless. Never set it on a statement with
// side effects.
func WithIdempotent() QueryOption {
	return func(o *requestOpts) { o.idempotent = true }
}

// newRequestID draws a fresh correlation ID from the client's jitter
// source.
func (c *Client) newRequestID() string {
	c.mu.Lock()
	n := c.rng.Uint64()
	c.mu.Unlock()
	return fmt.Sprintf("req-%016x", n)
}

// Query executes sql on the server, retrying overload responses
// (HTTP 429/503) under the backoff policy. The returned error is the
// reconstructed *msql.Error when the server produced one.
func (c *Client) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	return c.query(ctx, "/query", sql, nil, opts)
}

// QueryStream executes sql over the newline-delimited endpoint, calling
// fn once per row, in order, as the reply's lines are decoded (the
// server encodes a whole reply before sending it). It applies the same
// retry policy as Query (the stream has not started when an overload
// response arrives).
func (c *Client) QueryStream(ctx context.Context, sql string, fn func(row []any) error) (*Result, error) {
	if fn == nil {
		fn = func([]any) error { return nil }
	}
	return c.query(ctx, "/query.ndjson", sql, fn, nil)
}

func (c *Client) query(ctx context.Context, path, sql string, rows func([]any) error, opts []QueryOption) (*Result, error) {
	o := requestOpts{req: wire.QueryRequest{SQL: sql}}
	for _, f := range opts {
		f(&o)
	}
	k := call{path: path, sql: sql, idempotent: o.idempotent, rows: rows}
	rep, err := c.roundTrip(ctx, k, &o.req, &o.req.RequestID)
	if err != nil {
		return nil, err
	}
	return result(rep, o.req.RequestID), nil
}

// Kill cancels the in-flight query with the given session query ID (as
// listed by Queries or msql_stats.active_queries). It returns false —
// with the server's structured error — when no such query is running,
// which a KILL that raced with normal completion will observe.
func (c *Client) Kill(ctx context.Context, id int64) (bool, error) {
	body, err := json.Marshal(wire.KillRequest{ID: id})
	if err != nil {
		return false, err
	}
	resp, err := c.post(ctx, "/kill", body, "")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var kr wire.KillResponse
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		return false, fmt.Errorf("decoding kill response (HTTP %d): %w", resp.StatusCode, err)
	}
	if kr.Error != nil {
		return false, kr.Error.ToError("")
	}
	return kr.Killed, nil
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error { return c.probe(ctx, "/healthz") }

// Readyz probes readiness (fails with a non-2xx error while draining).
func (c *Client) Readyz(ctx context.Context) error { return c.probe(ctx, "/readyz") }

func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

// retryableError marks an error whose HTTP status invites a retry; the
// wrapped error is what surfaces when attempts run out.
type retryableError struct {
	err        error
	retryAfter int // seconds, 0 when absent
}

func (r *retryableError) Error() string { return r.err.Error() }
func (r *retryableError) Unwrap() error { return r.err }

// delay computes the capped, jittered backoff before retry `attempt`
// (1-based), honoring the server's Retry-After hint up to Max: the
// schedule is uniformly drawn from [d/2, d) where d doubles per retry.
func (c *Client) delay(attempt int, retryAfterSecs int) time.Duration {
	d := c.backoff.Base << (attempt - 1)
	if d > c.backoff.Max || d <= 0 {
		d = c.backoff.Max
	}
	c.mu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	if ra := time.Duration(retryAfterSecs) * time.Second; ra > jittered {
		jittered = ra
	}
	if jittered > c.backoff.Max {
		jittered = c.backoff.Max
	}
	return jittered
}

// transportError classifies an error from the HTTP layer itself (no
// response arrived). Connection-refused always invites a retry: the
// dial failed, so no request can have executed — the exact window a
// restarting server presents. Reset/EOF mean the connection died after
// the request may have reached the server, so they retry only for
// idempotent reads. Context cancellation/expiry is the caller's
// verdict and is never retried.
func transportError(err error, idempotent bool) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return &retryableError{err: err}
	}
	if idempotent && (errors.Is(err, syscall.ECONNRESET) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return &retryableError{err: err}
	}
	return err
}

// post sends one JSON request body; callers own the response body. The
// correlation ID travels as the X-Request-Id header on every request,
// so fan-out requests from a coordinator land in each shard's access
// log under the original client's ID.
func (c *Client) post(ctx context.Context, path string, body []byte, requestID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	return c.hc.Do(req)
}

// call describes one request to roundTrip: where it goes and how its
// outcome is classified.
type call struct {
	path string
	sql  string // re-attached to the server's structured errors
	// idempotent widens the retryable set to connection resets and EOFs.
	idempotent bool
	// once forbids any resend: a version-guarded mutation whose ack is
	// lost may have executed, and the caller finds out by probing
	// /catalog, not by sending it again.
	once bool
	// cas makes a 409 a *VersionMismatchError wanting expect; otherwise
	// it is the server's structured error like any other status.
	cas    bool
	expect int64
	// rows, when set, receives each row of an NDJSON reply as it arrives.
	rows func(row []any) error
}

// result is a /query or /execute reply as the caller sees it.
func result(r *wire.Reply, requestID string) *Result {
	return &Result{Columns: r.Columns, Types: r.Types, Rows: r.Rows, Message: r.Message, RequestID: requestID}
}

// roundTrip is the one request path of every statement call: it fills
// in *id (the request's correlation ID field, generated when the caller
// set none), sends req to k.path under the backoff policy, and returns
// the decoded reply or the classified error of the last attempt.
func (c *Client) roundTrip(ctx context.Context, k call, req any, id *string) (*wire.Reply, error) {
	if *id == "" {
		*id = c.newRequestID()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var last *retryableError
	for attempt := 0; attempt < c.backoff.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.delay(attempt, last.retryAfter)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		rep, err := c.attempt(ctx, &k, body, *id)
		if err == nil {
			return rep, nil
		}
		re, ok := err.(*retryableError) // attempt returns it bare
		if !ok {
			return nil, err
		}
		last = re
		if k.once {
			break
		}
	}
	return nil, last.err
}

// attempt is one exchange: post, decode, classify. A transport fault or
// an undecodable 200 is a transport error (retryable per
// transportError); a catalog-version miss of a cas call is a
// *VersionMismatchError; any other failure is the server's structured
// error — or, when the body carries none, the bare status — retryable
// exactly when the status is 429 or 503.
//
// The body is read whole into a pooled buffer and decoded in one pass
// (wire.DecodeReply, wire.DecodeStream), which copies out everything
// the reply keeps. A read error surfaces only where decoding ran out of
// bytes, as it would reading through a json.Decoder.
func (c *Client) attempt(ctx context.Context, k *call, body []byte, id string) (*wire.Reply, error) {
	resp, err := c.post(ctx, k.path, body, id)
	if err != nil {
		return nil, transportError(err, k.idempotent)
	}
	buf, readErr := readReply(resp.Body)
	defer putBody(buf)
	resp.Body.Close()
	rep := &wire.Reply{}
	if k.rows != nil && resp.StatusCode == http.StatusOK {
		err = wire.DecodeStream(*buf, rep, k.rows)
	} else {
		err = wire.DecodeReply(*buf, rep)
	}
	if readErr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		err = readErr
	}
	switch {
	case err != nil && resp.StatusCode == http.StatusOK:
		return nil, transportError(fmt.Errorf("decoding response: %w", err), k.idempotent)
	case err != nil || (rep.Error == nil && resp.StatusCode != http.StatusOK):
		err = fmt.Errorf("HTTP %d without a structured error", resp.StatusCode)
	case rep.Error == nil:
		return rep, nil
	case k.cas && resp.StatusCode == http.StatusConflict:
		return nil, &VersionMismatchError{Have: rep.Version, Want: k.expect}
	default:
		err = rep.Error.ToError(k.sql)
	}
	if wire.Retryable(resp.StatusCode) {
		return nil, &retryableError{err: err, retryAfter: wire.RetryAfterSeconds(resp.Header)}
	}
	return nil, err
}

// maxPooledBody bounds the reply buffers kept for reuse, so one huge
// reply does not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readReply reads r to its end into a pooled buffer, which the caller
// hands back to putBody once the reply is decoded; io.EOF is success.
func readReply(r io.Reader) (*[]byte, error) {
	buf := bodyPool.Get().(*[]byte)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}
