package server_test

// TestRequestContract is the request envelope's contract as one table:
// every statement endpoint × every way a request can end, run over each
// backend a Server fronts (an embedded session, and a coordinator over
// two in-process shards). Each row asserts the HTTP status, exactly one
// outcome-ledger increment per request, exactly one access-log line
// carrying the request ID, the X-Request-Id echo, request_id in the
// error payload, and Retry-After on 429/503. Cases are table entries;
// any backend runs them.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wal"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// contractConfig makes every condition reachable on one server: one
// execution slot and one queue slot (so a held statement plus one
// waiter fill it), a short queue wait, and a timeout clamp far below
// what the timeout row asks for.
func contractConfig(log io.Writer) server.Config {
	return server.Config{
		MaxInflight: 1, MaxQueue: 1, QueueWait: 40 * time.Millisecond,
		MaxTimeout: 80 * time.Millisecond, AccessLog: log,
	}
}

// holdHeader marks the request of the "client cancel" row.
const holdHeader = "X-Contract-Hold"

// holdUntilGone wraps a backend's handler. A request carrying holdHeader
// has its body read to EOF — net/http watches the connection from then
// on — and waits until the server has seen its client go before the
// envelope takes it, with the execution slot held: it is queued with its
// context already canceled and leaves the queue as abandoned. Were it
// queued first, the queue wait would race the server's noticing the
// closed connection, which a loaded host can delay past QueueWait.
func holdUntilGone(next http.Handler, held chan<- struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(holdHeader) != "" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			held <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}
		next.ServeHTTP(w, r)
	})
}

// contractHarness is one backend under test.
type contractHarness struct {
	name string
	srv  *server.Server
	url  string
	log  *syncBuffer
	// held receives a request holdUntilGone holds.
	held chan struct{}
	// endpoints the backend serves; the others must answer 404.
	served map[string]bool
	// version reports the backend's catalog version (for /apply's CAS).
	version func() int64
	// slowSQL is what a request with a timeout runs: long enough in rows
	// that an embedded engine reaches a cancellation checkpoint (it
	// polls its context every 1024 rows).
	slowSQL string
	sent    atomic.Int64 // requests issued through send, helpers included
}

const (
	contractQuery = `SELECT prodName, COUNT(*) AS n FROM Orders GROUP BY prodName`
	contractSlow  = `SELECT b, COUNT(*) AS n FROM big GROUP BY b`
)

func dbHarness(t *testing.T) *contractHarness {
	db := testDB(t)
	for name, sql := range map[string]string{
		"contract":     `SELECT prodName, COUNT(*) AS n FROM Orders WHERE revenue > $1 GROUP BY prodName`,
		"contractSlow": `SELECT b, COUNT(*) AS n FROM big WHERE a > $1 GROUP BY b`,
	} {
		if _, err := db.PrepareNamed(name, sql); err != nil {
			t.Fatal(err)
		}
	}
	log := &syncBuffer{}
	srv := server.New(db, contractConfig(log))
	held := make(chan struct{}, 1)
	ts := httptest.NewServer(holdUntilGone(srv.Handler(), held))
	t.Cleanup(ts.Close)
	return &contractHarness{
		name: "db", srv: srv, url: ts.URL, log: log, held: held, version: db.CatalogVersion, slowSQL: contractSlow,
		served: map[string]bool{"/query": true, "/query.ndjson": true, "/prepare": true, "/execute": true, "/rows": true, "/partial": true, "/apply": true},
	}
}

func coordinatorHarness(t *testing.T) *contractHarness {
	var shards [][]string
	for i := 0; i < 2; i++ {
		db := msql.Open()
		ts := httptest.NewServer(server.New(db, server.Config{ShardID: fmt.Sprintf("shard-%d", i)}).Handler())
		t.Cleanup(func() { ts.Close(); db.Close() })
		shards = append(shards, []string{ts.URL})
	}
	coord, err := dist.New(dist.Config{
		Shards:  shards,
		Backoff: client.Backoff{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	if err := coord.Exec(context.Background(), paperdata.All); err != nil {
		t.Fatal(err)
	}
	log := &syncBuffer{}
	srv := server.New(coord, contractConfig(log))
	held := make(chan struct{}, 1)
	ts := httptest.NewServer(holdUntilGone(coord.Front(srv), held))
	t.Cleanup(ts.Close)
	return &contractHarness{
		name: "coordinator", srv: srv, url: ts.URL, log: log, held: held, version: coord.CatalogVersion, slowSQL: contractQuery,
		served: map[string]bool{"/query": true, "/query.ndjson": true},
	}
}

// contractEndpoint is one statement endpoint's request type.
type contractEndpoint struct {
	path string
	// body builds a valid request; timeoutMs and expect are spliced in
	// where the type carries them, and a request with a timeout runs the
	// harness's slow statement.
	body func(h *contractHarness, timeoutMs, expect int64) string
	// timeout / version: the request type carries timeout_ms / an
	// expected catalog version. operators: running it executes engine
	// operators, so the FailOperator site can hold or break it.
	timeout, version, operators bool
}

func (h *contractHarness) sql(timeoutMs int64) string {
	if timeoutMs > 0 {
		return h.slowSQL
	}
	return contractQuery
}

func queryBody(h *contractHarness, ms, v int64) string {
	return fmt.Sprintf(`{"sql": %q, "timeout_ms": %d, "expect_catalog_version": %d}`, h.sql(ms), ms, v)
}

var contractEndpoints = []contractEndpoint{
	{path: "/query", timeout: true, version: true, operators: true,
		body: queryBody},
	{path: "/query.ndjson", timeout: true, version: true, operators: true,
		body: queryBody},
	{path: "/prepare",
		body: func(*contractHarness, int64, int64) string {
			return fmt.Sprintf(`{"name": "contract2", "sql": %q}`, contractQuery)
		}},
	{path: "/execute", timeout: true, operators: true,
		body: func(_ *contractHarness, ms, _ int64) string {
			name := "contract"
			if ms > 0 {
				name = "contractSlow"
			}
			return fmt.Sprintf(`{"name": %q, "params": [{"type": "INTEGER", "value": 1}], "timeout_ms": %d}`, name, ms)
		}},
	{path: "/rows", timeout: true, version: true, operators: true,
		body: func(h *contractHarness, ms, v int64) string {
			return fmt.Sprintf(`{"sql": %q, "timeout_ms": %d, "expect_version": %d}`, h.sql(ms), ms, v)
		}},
	{path: "/partial", timeout: true, version: true, operators: true,
		body: func(h *contractHarness, ms, v int64) string {
			return fmt.Sprintf(`{"sql": %q, "groups": 1, "aggs": 1, "timeout_ms": %d, "expect_version": %d}`, h.sql(ms), ms, v)
		}},
	{path: "/apply", version: true,
		body: func(h *contractHarness, _, v int64) string {
			if v == 0 {
				v = h.version()
			}
			rec := wal.EncodePayload(&wal.Record{Type: wal.RecCreateTable, Name: fmt.Sprintf("applied_%d", v),
				Cols: []string{"x"}, Types: []sqltypes.Type{{Kind: sqltypes.KindInt}}})
			return fmt.Sprintf(`{"record": %q, "expect_version": %d}`, base64.StdEncoding.EncodeToString(rec), v)
		}},
}

// probe is what came back for one request.
type probe struct {
	status int
	header http.Header
	body   []byte
	err    error
}

func (h *contractHarness) send(ctx context.Context, method, path, id, body string) probe {
	return h.sendWith(ctx, method, path, id, body, nil)
}

// sendWith is send with extra request headers.
func (h *contractHarness) sendWith(ctx context.Context, method, path, id, body string, header http.Header) probe {
	h.sent.Add(1)
	req, err := http.NewRequestWithContext(ctx, method, h.url+path, strings.NewReader(body))
	if err != nil {
		return probe{err: err}
	}
	for k, v := range header {
		req.Header[k] = v
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return probe{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return probe{status: resp.StatusCode, header: resp.Header, body: raw, err: err}
}

func (h *contractHarness) outcomes() (total int64) {
	for code := 0; code < 9; code++ {
		total += h.srv.OutcomeCount(exec.Code(code))
	}
	return total
}

// occupy fills the execution slot with a held /query and returns a
// function that lets it finish and waits for it.
func (h *contractHarness) occupy(t *testing.T, id string) (finish func()) {
	release, _ := holdOperators(t)
	done := make(chan probe, 1)
	body := queryBody(h, 0, 0)
	go func() {
		done <- h.send(context.Background(), http.MethodPost, "/query", id, body)
	}()
	waitFor(t, 2*time.Second, func() bool { return h.srv.Counters().Inflight == 1 })
	return func() {
		release()
		if p := <-done; p.err != nil || p.status != http.StatusOK {
			t.Errorf("held statement %s ended %d %v: %s", id, p.status, p.err, p.body)
		}
	}
}

// contractCondition is one way a request can end.
type contractCondition struct {
	name   string
	status int
	code   exec.Code
	// applies reports whether ep's request type can meet the condition.
	applies func(ep contractEndpoint) bool
	// run produces the condition for one request with the given ID and
	// returns what came back (status 0 when the client gave up first).
	run func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe
}

func post(h *contractHarness, ep contractEndpoint, id, body string) probe {
	return h.send(context.Background(), http.MethodPost, ep.path, id, body)
}

var contractConditions = []contractCondition{
	{name: "wrong method", status: http.StatusMethodNotAllowed, code: exec.CodeParse,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			p := h.send(context.Background(), http.MethodGet, ep.path, id, "")
			if p.header.Get("Allow") != http.MethodPost {
				t.Errorf("405 without Allow: POST")
			}
			return p
		}},
	{name: "malformed JSON", status: http.StatusBadRequest, code: exec.CodeParse,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			return post(h, ep, id, `{"sql": `)
		}},
	{name: "oversize body", status: http.StatusBadRequest, code: exec.CodeParse,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			return post(h, ep, id, `{"sql": "`+strings.Repeat("x", 1<<20)+`"}`)
		}},
	{name: "queue full", status: http.StatusTooManyRequests, code: exec.CodeResourceExhausted,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			finish := h.occupy(t, id+"-holder")
			waiter := make(chan probe, 1)
			go func() {
				waiter <- h.send(context.Background(), http.MethodPost, "/query", id+"-waiter", queryBody(h, 0, 0))
			}()
			waitFor(t, 2*time.Second, func() bool { return h.srv.Counters().Queued == 1 })
			p := post(h, ep, id, ep.body(h, 0, 0))
			finish()
			<-waiter // shed by queue wait, or run once the slot freed: either is one outcome
			if !strings.Contains(string(p.body), "server overloaded") {
				t.Errorf("queue-full rejection does not say so: %s", p.body)
			}
			return p
		}},
	{name: "queue-wait expiry", status: http.StatusTooManyRequests, code: exec.CodeResourceExhausted,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			finish := h.occupy(t, id+"-holder")
			p := post(h, ep, id, ep.body(h, 0, 0))
			finish()
			if !strings.Contains(string(p.body), "no execution slot freed") {
				t.Errorf("queue-wait rejection does not say so: %s", p.body)
			}
			return p
		}},
	{name: "client cancel", status: wire.StatusClientClosedRequest, code: exec.CodeCanceled,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			finish := h.occupy(t, id+"-holder")
			ctx, cancel := context.WithCancel(context.Background())
			gone := make(chan probe, 1)
			body := ep.body(h, 0, 0)
			go func() {
				gone <- h.sendWith(ctx, http.MethodPost, ep.path, id, body, http.Header{holdHeader: {"1"}})
			}()
			select {
			case <-h.held:
			case <-time.After(2 * time.Second):
				t.Fatal("the request never reached the server")
			}
			cancel()
			if p := <-gone; p.err == nil {
				t.Errorf("canceled request got an answer: %d", p.status)
			}
			// The handler notices the dead connection on its own schedule.
			waitFor(t, 2*time.Second, func() bool { return strings.Contains(h.log.String(), `"`+id+`"`) })
			finish()
			return probe{}
		}},
	{name: "handler panic", status: http.StatusInternalServerError, code: exec.CodeRuntime,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			// The accept failpoint runs inside the envelope for every
			// endpoint; a panic there is a panic in the handler.
			exec.SetFailPoint(exec.FailServerAccept, func() error { panic("injected handler panic") })
			defer exec.SetFailPoint(exec.FailServerAccept, nil)
			before := h.srv.Counters().Panics
			p := post(h, ep, id, ep.body(h, 0, 0))
			if got := h.srv.Counters().Panics - before; got != 1 {
				t.Errorf("panics counter moved by %d, want 1", got)
			}
			return p
		}},
	{name: "engine panic", status: http.StatusInternalServerError, code: exec.CodeRuntime,
		applies: func(ep contractEndpoint) bool { return ep.operators },
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			exec.SetFailPoint(exec.FailOperator, func() error { panic("injected operator panic") })
			defer exec.SetFailPoint(exec.FailOperator, nil)
			body := ep.body(h, 0, 0)
			if strings.HasPrefix(ep.path, "/query") {
				// Runs on the coordinator's own session too, so the panic
				// is the fronted backend's, not a shard's.
				body = `{"sql": "SELECT COUNT(*) AS n FROM msql_stats.statements"}`
			}
			return post(h, ep, id, body)
		}},
	{name: "timeout above MaxTimeout", status: http.StatusGatewayTimeout, code: exec.CodeTimeout,
		applies: func(ep contractEndpoint) bool { return ep.timeout },
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			// Operators stall for longer than the 80ms clamp and far less
			// than the 10s the client asks for: only a clamped deadline
			// turns this into TIMEOUT.
			exec.SetFailPoint(exec.FailOperator, func() error { time.Sleep(150 * time.Millisecond); return nil })
			defer exec.SetFailPoint(exec.FailOperator, nil)
			start := time.Now()
			p := post(h, ep, id, ep.body(h, 10_000, 0))
			if el := time.Since(start); el > 5*time.Second {
				t.Errorf("clamped timeout took %v", el)
			}
			return p
		}},
	{name: "version mismatch", status: http.StatusConflict, code: exec.CodeRuntime,
		applies: func(ep contractEndpoint) bool { return ep.version },
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			p := post(h, ep, id, ep.body(h, 0, 999))
			if !strings.Contains(string(p.body), "catalog version mismatch") {
				t.Errorf("409 body does not name the mismatch: %s", p.body)
			}
			if ep.path == "/rows" || ep.path == "/partial" || ep.path == "/apply" {
				var shape struct {
					Version *int64 `json:"version"`
				}
				if json.Unmarshal(p.body, &shape); shape.Version == nil || *shape.Version != h.version() {
					t.Errorf("409 body does not report the catalog version %d: %s", h.version(), p.body)
				}
			}
			return p
		}},
	{name: "success", status: http.StatusOK,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			p := post(h, ep, id, ep.body(h, 0, 0))
			want := "application/json"
			if ep.path == "/query.ndjson" {
				want = "application/x-ndjson"
				if !strings.HasSuffix(strings.TrimSpace(string(p.body)), `{"done":true,"rows":3}`) {
					t.Errorf("ndjson stream lacks its trailer: %s", p.body)
				}
			}
			if got := p.header.Get("Content-Type"); got != want {
				t.Errorf("Content-Type = %q, want %q", got, want)
			}
			return p
		}},
	// Last: a drained server stays drained.
	{name: "draining", status: http.StatusServiceUnavailable, code: exec.CodeResourceExhausted,
		run: func(t *testing.T, h *contractHarness, ep contractEndpoint, id string) probe {
			h.srv.Drain(context.Background())
			return post(h, ep, id, ep.body(h, 0, 0))
		}},
}

func TestRequestContract(t *testing.T) {
	for _, open := range []func(*testing.T) *contractHarness{dbHarness, coordinatorHarness} {
		h := open(t)
		t.Run(h.name, func(t *testing.T) {
			for _, cond := range contractConditions {
				for _, ep := range contractEndpoints {
					if cond.applies != nil && !cond.applies(ep) {
						continue
					}
					t.Run(cond.name+ep.path, func(t *testing.T) {
						defer exec.ClearFailPoints()
						if !h.served[ep.path] {
							if p := post(h, ep, "unserved", ep.body(h, 0, 0)); p.status != http.StatusNotFound {
								t.Fatalf("%s is not this backend's to serve, yet answered %d", ep.path, p.status)
							}
							return
						}
						h.checkRow(t, cond, ep)
					})
				}
			}
		})
	}
}

func (h *contractHarness) checkRow(t *testing.T, cond contractCondition, ep contractEndpoint) {
	id := fmt.Sprintf("rc-%s-%s%s", h.name, strings.ReplaceAll(cond.name, " ", "-"), ep.path)
	outcomes, coded, sent := h.outcomes(), h.srv.OutcomeCount(cond.code), h.sent.Load()
	p := cond.run(t, h, ep, id)

	if p.status != 0 { // 0: the client gave up before any answer
		if p.err != nil {
			t.Fatalf("request failed: %v", p.err)
		}
		if p.status != cond.status {
			t.Fatalf("status = %d, want %d: %s", p.status, cond.status, p.body)
		}
		if got := p.header.Get("X-Request-Id"); got != id {
			t.Errorf("X-Request-Id echo = %q, want %q", got, id)
		}
		retryable := cond.status == http.StatusTooManyRequests || cond.status == http.StatusServiceUnavailable
		if got := p.header.Get("Retry-After"); retryable != (got != "") {
			t.Errorf("Retry-After = %q on a %d", got, cond.status)
		}
		if cond.status != http.StatusOK {
			var reply struct {
				Error struct {
					Code      string `json:"code"`
					RequestID string `json:"request_id"`
				} `json:"error"`
			}
			if err := json.Unmarshal(p.body, &reply); err != nil {
				t.Fatalf("error body is not JSON: %v: %s", err, p.body)
			}
			if reply.Error.Code != cond.code.String() || reply.Error.RequestID != id {
				t.Errorf("error payload = %+v, want code %s and request_id %s", reply.Error, cond.code, id)
			}
		}
	}

	// One outcome per request — this one under the condition's code,
	// the helpers (holder, waiter) under theirs.
	requests := h.sent.Load() - sent
	if got := h.outcomes() - outcomes; got != requests {
		t.Errorf("outcome ledger moved by %d for %d requests", got, requests)
	}
	if got := h.srv.OutcomeCount(cond.code) - coded; got < 1 || (requests == 1 && got != 1) {
		t.Errorf("outcome %s counted %d times, want once", cond.code, got)
	}
	var lines []map[string]any
	for _, rec := range accessLines(t, h.log) {
		if rec["request_id"] == id {
			lines = append(lines, rec)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d access-log lines carry %s, want exactly 1", len(lines), id)
	}
	if rec := lines[0]; rec["path"] != ep.path || rec["status"] != float64(cond.status) {
		t.Errorf("access record = %v, want %s → %d", rec, ep.path, cond.status)
	}
}
