package client

// TestRoundTripClassification is roundTrip's contract as one table:
// every statement call × every way an exchange can go, asserting how
// many attempts were made, what kind of error surfaced, and that each
// attempt carried the same non-empty X-Request-Id (the one a *Result
// reports).

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
)

// fakeReply is one scripted answer; status 0 drops the connection
// before any response.
type fakeReply struct {
	status int
	body   string
}

const (
	structured429 = `{"error": {"code": "RESOURCE_EXHAUSTED", "phase": "admission", "offset": -1, "message": "shed"}}`
	structured400 = `{"error": {"code": "PARSE", "phase": "parse", "offset": 0, "message": "syntax"}}`
	structured409 = `{"version": 7, "error": {"code": "RUNTIME", "phase": "catalog", "offset": -1, "message": "catalog version mismatch"}}`
	// okBody carries every endpoint's success fields at once.
	okBody   = `{"columns": ["x"], "types": ["INTEGER"], "rows": [[1]], "num_params": 1, "version": 7, "groups": []}`
	okStream = `{"columns": ["x"], "types": ["INTEGER"]}` + "\n" + `{"row": [1]}` + "\n" + `{"done": true, "rows": 1}` + "\n"
)

// scriptedServer answers attempt n with script[n] (the last entry
// repeats) and records each attempt's X-Request-Id.
func scriptedServer(t *testing.T, script []fakeReply) (*httptest.Server, func() []string) {
	var mu sync.Mutex
	var ids []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := len(ids)
		ids = append(ids, r.Header.Get("X-Request-Id"))
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		rep := script[min(n, len(script)-1)]
		if rep.status == 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		if rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "0")
		}
		body := rep.body
		if body == okBody && r.URL.Path == "/query.ndjson" {
			body = okStream
		}
		w.WriteHeader(rep.status)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ids...)
	}
}

func TestRoundTripClassification(t *testing.T) {
	const attempts = 3
	// A call reports the request ID of its *Result ("" when it has none)
	// and, for apply, whether the error-free outcome was a CAS miss.
	type outcome struct {
		requestID string
		casMiss   bool
		err       error
	}
	resultOf := func(res *Result, err error) outcome {
		if res == nil {
			return outcome{err: err}
		}
		return outcome{requestID: res.RequestID, err: err}
	}
	calls := []struct {
		name             string
		idempotent, once bool // the call's retry rule
		cas              bool // a 409 is a version miss, not a structured error
		do               func(ctx context.Context, c *Client) outcome
	}{
		{name: "Query", do: func(ctx context.Context, c *Client) outcome {
			return resultOf(c.Query(ctx, "SELECT 1"))
		}},
		{name: "QueryStream", do: func(ctx context.Context, c *Client) outcome {
			return resultOf(c.QueryStream(ctx, "SELECT 1", nil))
		}},
		{name: "Prepare", do: func(ctx context.Context, c *Client) outcome {
			_, err := c.Prepare(ctx, "q", "SELECT 1")
			return outcome{err: err}
		}},
		{name: "Exec", do: func(ctx context.Context, c *Client) outcome {
			return resultOf((&Stmt{c: c, name: "q", sql: "SELECT 1"}).Exec(ctx, 1))
		}},
		{name: "Partial", idempotent: true, cas: true, do: func(ctx context.Context, c *Client) outcome {
			_, err := c.Read(ctx, "/partial", wire.ReadRequest{SQL: "SELECT 1", Aggs: 1, ExpectVersion: 3})
			return outcome{err: err}
		}},
		{name: "Rows", idempotent: true, cas: true, do: func(ctx context.Context, c *Client) outcome {
			_, err := c.Read(ctx, "/rows", wire.ReadRequest{SQL: "SELECT 1", ExpectVersion: 3})
			return outcome{err: err}
		}},
		{name: "Apply", once: true, cas: true, do: func(ctx context.Context, c *Client) outcome {
			v, ok, err := c.Apply(ctx, []byte("a record"), 3, "")
			return outcome{casMiss: err == nil && !ok && v == 7, err: err}
		}},
	}

	type kind int
	const (
		success kind = iota
		structured
		versionMiss
		bareStatus // "HTTP n without a structured error"
		transport  // neither a taxonomy error nor a status: the HTTP layer's own
	)
	cases := []struct {
		name   string
		script []fakeReply
		// retried: the exchange invites a retry from calls that may resend
		// (every one but apply); onlyIdempotent narrows that to idempotent
		// calls.
		retried, onlyIdempotent bool
		// want is the outcome once attempts are spent (or at once).
		want kind
		code msql.ErrorCode
	}{
		{name: "429 then 200", script: []fakeReply{{429, structured429}, {200, okBody}}, retried: true, want: success},
		{name: "503 structured", script: []fakeReply{{503, structured429}}, retried: true, want: structured, code: msql.ErrResourceExhausted},
		{name: "400 structured", script: []fakeReply{{400, structured400}}, want: structured, code: msql.ErrParse},
		{name: "409 structured", script: []fakeReply{{409, structured409}}, want: versionMiss, code: msql.ErrRuntime},
		{name: "500 unstructured", script: []fakeReply{{500, "boom"}}, want: bareStatus},
		{name: "503 unstructured", script: []fakeReply{{503, "<html>upstream down</html>"}}, retried: true, want: bareStatus},
		{name: "200 undecodable", script: []fakeReply{{200, "not json"}}, want: transport},
		{name: "connection dropped", script: []fakeReply{{}}, retried: true, onlyIdempotent: true, want: transport},
	}

	for _, tc := range cases {
		for _, call := range calls {
			t.Run(tc.name+"/"+call.name, func(t *testing.T) {
				ts, seen := scriptedServer(t, tc.script)
				c := New(ts.URL, WithBackoff(Backoff{Attempts: attempts, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1}))
				out := call.do(context.Background(), c)

				retries := tc.retried && !call.once && (call.idempotent || !tc.onlyIdempotent)
				wantAttempts := 1
				switch {
				case retries && tc.want == success:
					wantAttempts = 2
				case retries:
					wantAttempts = attempts
				}
				ids := seen()
				if len(ids) != wantAttempts {
					t.Fatalf("%d attempts, want %d (err %v)", len(ids), wantAttempts, out.err)
				}
				for _, id := range ids {
					if id == "" || id != ids[0] {
						t.Fatalf("attempts carried X-Request-Id %q, want one non-empty ID throughout", ids)
					}
				}

				want := tc.want
				if want == success && !retries {
					want = structured // the 429 of a call that never resends
				}
				if want == versionMiss && !call.cas {
					want = structured
				}
				var re *retryableError
				if errors.As(out.err, &re) {
					t.Fatalf("the retryable wrapper escaped: %v", out.err)
				}
				var me *msql.Error
				var vm *VersionMismatchError
				switch want {
				case success:
					if out.err != nil {
						t.Fatalf("err = %v, want success", out.err)
					}
					if call.name != "Prepare" && call.name != "Partial" && call.name != "Rows" && call.name != "Apply" && out.requestID != ids[0] {
						t.Fatalf("Result.RequestID = %q, sent %q", out.requestID, ids[0])
					}
				case structured:
					code := tc.code
					if tc.want == success {
						code = msql.ErrResourceExhausted
					}
					if !errors.As(out.err, &me) || me.Code != code {
						t.Fatalf("err = %v, want *msql.Error %v", out.err, code)
					}
				case versionMiss:
					if call.once {
						if !out.casMiss {
							t.Fatalf("apply's CAS miss must be (7, false, nil), got err %v", out.err)
						}
					} else if !errors.As(out.err, &vm) || vm.Have != 7 || vm.Want != 3 {
						t.Fatalf("err = %v, want VersionMismatchError{7, 3}", out.err)
					}
				case bareStatus:
					if out.err == nil || errors.As(out.err, &me) || !strings.Contains(out.err.Error(), "without a structured error") {
						t.Fatalf("err = %v, want the bare HTTP status", out.err)
					}
				case transport:
					if out.err == nil || errors.As(out.err, &me) || strings.Contains(out.err.Error(), "without a structured error") {
						t.Fatalf("err = %v, want a raw transport error", out.err)
					}
				}
			})
		}
	}
}
