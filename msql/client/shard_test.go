package client

// The widened retry contract and the shard-endpoint surface:
// connection-refused retries for everyone, reset/EOF only under
// WithIdempotent, X-Request-Id on every request, and the hedging
// helper's win/lose/fallback paths.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/wire"
)

func TestTransportErrorClassification(t *testing.T) {
	refused := &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
	reset := &net.OpError{Op: "read", Err: syscall.ECONNRESET}
	cases := []struct {
		name       string
		err        error
		idempotent bool
		retryable  bool
	}{
		{"refused always retries", refused, false, true},
		{"refused idempotent retries", refused, true, true},
		{"reset plain does not", reset, false, false},
		{"reset idempotent retries", reset, true, true},
		{"eof plain does not", io.EOF, false, false},
		{"eof idempotent retries", io.EOF, true, true},
		{"unexpected eof idempotent retries", io.ErrUnexpectedEOF, true, true},
		{"canceled never retries", context.Canceled, true, false},
		{"deadline never retries", context.DeadlineExceeded, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := transportError(tc.err, tc.idempotent)
			var re *retryableError
			if errors.As(got, &re) != tc.retryable {
				t.Fatalf("retryable = %v, want %v (err %v)", !tc.retryable, tc.retryable, got)
			}
			if !errors.Is(got, tc.err) {
				t.Fatalf("classification must preserve the cause, got %v", got)
			}
		})
	}
}

// TestConnectionRefusedRetries boots the real server only after the
// first attempt has failed to dial it: the retry must dial again and
// succeed.
func TestConnectionRefusedRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; the first dial gets ECONNREFUSED

	var started atomic.Bool
	var ts *httptest.Server
	defer func() {
		if ts != nil {
			ts.Close()
		}
	}()
	go func() {
		time.Sleep(20 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(wire.QueryResponse{Message: "ok"})
		})}}
		ts.Start()
		started.Store(true)
	}()

	c := New("http://"+addr, WithBackoff(Backoff{Attempts: 8, Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 7}))
	res, err := c.Query(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatalf("query should survive the refused window: %v (server started: %v)", err, started.Load())
	}
	if res.Message != "ok" {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestResetRetriesOnlyWhenIdempotent kills the first connection at the
// TCP level mid-response; the plain query surfaces the error, the
// idempotent one retries into the healthy handler.
func TestResetRetriesOnlyWhenIdempotent(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // client sees EOF / reset
			return
		}
		json.NewEncoder(w).Encode(wire.QueryResponse{Message: "ok"})
	}))
	defer ts.Close()

	pol := WithBackoff(Backoff{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 9})

	c := New(ts.URL, pol)
	if _, err := c.Query(context.Background(), "SELECT 1"); err == nil {
		t.Fatal("non-idempotent query must surface the dead connection, not retry")
	}

	attempts.Store(0)
	res, err := c.Query(context.Background(), "SELECT 1", WithIdempotent())
	if err != nil {
		t.Fatalf("idempotent query should retry past the dead connection: %v", err)
	}
	if res.Message != "ok" || attempts.Load() != 2 {
		t.Fatalf("want success on attempt 2, got %+v after %d attempts", res, attempts.Load())
	}
}

// TestRequestIDHeaderOnEveryRequest covers the coordinator fan-out
// contract: the correlation ID travels as X-Request-Id.
func TestRequestIDHeaderOnEveryRequest(t *testing.T) {
	var gotHeader atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get("X-Request-Id"))
		json.NewEncoder(w).Encode(wire.QueryResponse{Message: "ok"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	if _, err := c.Query(context.Background(), "SELECT 1", WithRequestID("corr-77")); err != nil {
		t.Fatal(err)
	}
	if got := gotHeader.Load(); got != "corr-77" {
		t.Fatalf("X-Request-Id = %v, want corr-77", got)
	}

	// Generated IDs travel too.
	if _, err := c.Query(context.Background(), "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := gotHeader.Load().(string); got == "" {
		t.Fatal("generated request ID missing from X-Request-Id header")
	}
}

func TestPartialVersionMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(wire.ReadResponse{Version: 12, Error: &wire.Error{
			Code: "RUNTIME", Phase: "catalog", Offset: -1, Message: "catalog version mismatch",
		}})
	}))
	defer ts.Close()

	c := New(ts.URL, WithBackoff(Backoff{Attempts: 2, Base: time.Millisecond, Max: time.Millisecond, Seed: 1}))
	_, err := c.Read(context.Background(), "/partial", wire.ReadRequest{SQL: "SELECT COUNT(*) FROM t", Aggs: 1, ExpectVersion: 9})
	var vm *VersionMismatchError
	if !errors.As(err, &vm) {
		t.Fatalf("want VersionMismatchError, got %v", err)
	}
	if vm.Have != 12 || vm.Want != 9 {
		t.Fatalf("mismatch fields = %+v", vm)
	}
}

func TestApplyCASMissIsNotAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(wire.ApplyResponse{Version: 5, Error: &wire.Error{
			Code: "RUNTIME", Phase: "catalog", Offset: -1, Message: "catalog version mismatch",
		}})
	}))
	defer ts.Close()

	c := New(ts.URL)
	version, ok, err := c.Apply(context.Background(), []byte("a record"), 3, "req-1")
	if err != nil || ok {
		t.Fatalf("CAS miss must be (v, false, nil), got ok=%v err=%v", ok, err)
	}
	if version != 5 {
		t.Fatalf("version = %d, want the server's current 5", version)
	}
}

func TestHedgePrimaryWinsWithoutHedging(t *testing.T) {
	v, out, err := Hedge(context.Background(), 50*time.Millisecond,
		func(ctx context.Context) (int, error) { return 1, nil },
		func(ctx context.Context) (int, error) { t.Error("hedge must not launch"); return 2, nil },
	)
	if err != nil || v != 1 || out.Winner != 0 || out.Hedged {
		t.Fatalf("got v=%d out=%+v err=%v", v, out, err)
	}
}

func TestHedgeSecondaryWinsWhenPrimaryLags(t *testing.T) {
	primaryStarted := make(chan struct{})
	v, out, err := Hedge(context.Background(), 5*time.Millisecond,
		func(ctx context.Context) (int, error) {
			close(primaryStarted)
			select {
			case <-time.After(5 * time.Second):
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
		func(ctx context.Context) (int, error) { return 2, nil },
	)
	<-primaryStarted
	if err != nil || v != 2 || out.Winner != 1 || !out.Hedged {
		t.Fatalf("got v=%d out=%+v err=%v", v, out, err)
	}
}

func TestHedgeFallsBackWhenPrimaryFailsFast(t *testing.T) {
	v, out, err := Hedge(context.Background(), time.Hour,
		func(ctx context.Context) (int, error) { return 0, errors.New("down") },
		func(ctx context.Context) (int, error) { return 2, nil },
	)
	if err != nil || v != 2 || out.Winner != 1 || !out.Hedged {
		t.Fatalf("fast-fail must fall over to the hedge: v=%d out=%+v err=%v", v, out, err)
	}
}

func TestHedgeBothFailingReturnsPrimaryError(t *testing.T) {
	primaryErr := errors.New("primary down")
	_, out, err := Hedge(context.Background(), time.Millisecond,
		func(ctx context.Context) (int, error) { return 0, primaryErr },
		func(ctx context.Context) (int, error) { return 0, errors.New("hedge down") },
	)
	if !errors.Is(err, primaryErr) {
		t.Fatalf("want the primary's error, got %v", err)
	}
	if out.Winner != -1 {
		t.Fatalf("no winner expected, got %+v", out)
	}
}
