package server_test

// Robustness tests for the msqld front end: wire fidelity, overload
// shedding under a burst, and graceful drain. What one request goes
// through (status, ledger, access log, request ID — per endpoint, per
// way of ending, per backend) is TestRequestContract's table in
// contract_test.go; the chaos soak lives in chaos_test.go; the overload
// experiment (E24) in overload_test.go.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// listing3 is the paper's Listing 3: AGGREGATE over the measure view.
const listing3 = `SELECT prodName, AGGREGATE(profitMargin) AS profitMargin
FROM EnhancedOrders GROUP BY prodName`

// testDB loads the paper schema plus a big table whose measure view
// makes statements run long enough to be reliably in flight.
func testDB(t testing.TB) *msql.DB {
	t.Helper()
	db := msql.Open()
	db.MustExec(paperdata.All)
	db.MustExec(`CREATE TABLE big (a INTEGER, b INTEGER)`)
	rows := make([][]msql.Value, 20000)
	for i := range rows {
		rows[i] = []msql.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 97))}
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE VIEW bigM AS SELECT *, SUM(a) AS MEASURE sumA FROM big`)
	return db
}

const slowQuery = `SELECT b, AGGREGATE(sumA) FROM bigM GROUP BY b ORDER BY b`

// holdOperators holds every operator execution at the FailOperator
// site until the returned release is called, so a statement the test
// started cannot end before the test has acted on it, however loaded
// the machine; released, operators run at full speed. The returned
// gauge records the wall time of the latest operator execution let
// through — i.e. when the engine last did work — for asserting that
// nothing executes past a drain.
func holdOperators(t testing.TB) (release func(), lastFire *atomic.Int64) {
	t.Helper()
	gate := make(chan struct{})
	lastFire = new(atomic.Int64)
	exec.SetFailPoint(exec.FailOperator, func() error {
		<-gate
		lastFire.Store(time.Now().UnixNano())
		return nil
	})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		exec.ClearFailPoints()
	})
	return release, lastFire
}

// startServer wires a Server over db into an httptest listener.
func startServer(t testing.TB, db *msql.DB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func fastBackoff(seed int64) client.Backoff {
	return client.Backoff{Attempts: 4, Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: seed}
}

func TestServeListing3(t *testing.T) {
	_, ts := startServer(t, testDB(t), server.Config{})
	c := client.New(ts.URL, client.WithBackoff(fastBackoff(1)))

	res, err := c.Query(context.Background(), listing3)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if want := []string{"prodName", "profitMargin"}; strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per product)", len(res.Rows))
	}
	if res.Types[0] != "VARCHAR" {
		t.Fatalf("types[0] = %s, want VARCHAR", res.Types[0])
	}

	// The newline-delimited framing returns the same result.
	var streamed int
	sres, err := c.QueryStream(context.Background(), listing3, func(row []any) error {
		streamed++
		return nil
	})
	if err != nil {
		t.Fatalf("stream query: %v", err)
	}
	if streamed != 3 || len(sres.Rows) != 3 {
		t.Fatalf("streamed %d rows (result %d), want 3", streamed, len(sres.Rows))
	}
	for i := range res.Rows {
		if fmt.Sprint(res.Rows[i]) != fmt.Sprint(sres.Rows[i]) {
			t.Fatalf("row %d differs between framings: %v vs %v", i, res.Rows[i], sres.Rows[i])
		}
	}
}

// TestShardReadAtOrPastItsVersion: a shard read pins the catalog
// version it was planned at. A shard below it has missed a mutation and
// rejects; one at it or past it (it has since applied a concurrent
// mutation) answers.
func TestShardReadAtOrPastItsVersion(t *testing.T) {
	db := msql.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1)`)
	_, ts := startServer(t, db, server.Config{})
	c := client.New(ts.URL, client.WithBackoff(fastBackoff(1)))
	v := db.CatalogVersion()
	for _, expect := range []int64{v - 1, v} {
		f, err := c.Read(context.Background(), "/rows", wire.ReadRequest{SQL: "SELECT x FROM t", ExpectVersion: expect})
		if err != nil {
			t.Fatalf("shard at %d, read expecting %d: %v", v, expect, err)
		}
		if rows, err := wire.DecodeRowsFrame(f.Frame); err != nil || len(rows) != 1 {
			t.Fatalf("shard at %d, read expecting %d: rows %v, %v", v, expect, rows, err)
		}
	}
	_, err := c.Read(context.Background(), "/rows", wire.ReadRequest{SQL: "SELECT x FROM t", ExpectVersion: v + 1})
	var vm *client.VersionMismatchError
	if !errors.As(err, &vm) || vm.Have != v || vm.Want != v+1 {
		t.Fatalf("shard at %d, read expecting %d: %v, want a version mismatch", v, v+1, err)
	}
}

func TestScriptAndMessageOverWire(t *testing.T) {
	_, ts := startServer(t, testDB(t), server.Config{})
	c := client.New(ts.URL, client.WithBackoff(fastBackoff(1)))
	res, err := c.Query(context.Background(), `CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2)`)
	if err != nil {
		t.Fatalf("script: %v", err)
	}
	if res.Message == "" || len(res.Rows) != 0 {
		t.Fatalf("want DDL/DML message result, got %+v", res)
	}
	rows, err := c.Query(context.Background(), `SELECT SUM(x) AS s FROM t`)
	if err != nil {
		t.Fatalf("select after script: %v", err)
	}
	if len(rows.Rows) != 1 {
		t.Fatalf("rows = %v", rows.Rows)
	}
}

// TestErrorTaxonomyOverWire: structured errors must round-trip with
// code, phase, offset and hint intact, and non-retryable codes must
// cost exactly one attempt.
func TestErrorTaxonomyOverWire(t *testing.T) {
	srv, ts := startServer(t, testDB(t), server.Config{})
	c := client.New(ts.URL, client.WithBackoff(fastBackoff(1)))

	cases := []struct {
		name string
		sql  string
		code msql.ErrorCode
	}{
		{"parse", `SELEC 1`, msql.ErrParse},
		{"bind", `SELECT nosuchcolumn FROM Orders`, msql.ErrBind},
		{"runtime", `SELECT 9223372036854775807 + 1 FROM Orders`, msql.ErrRuntime},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Counters().Accepted
			_, err := c.Query(context.Background(), tc.sql)
			if !errors.Is(err, tc.code) {
				t.Fatalf("want %v, got %v", tc.code, err)
			}
			var me *msql.Error
			if !errors.As(err, &me) {
				t.Fatalf("error is not *msql.Error: %v", err)
			}
			if me.Query != tc.sql {
				t.Fatalf("query text not re-attached: %q", me.Query)
			}
			if got := srv.Counters().Accepted - before; got != 1 {
				t.Fatalf("non-retryable %s cost %d attempts, want 1", tc.name, got)
			}
		})
	}

	// Positioned runtime errors keep their byte offset and hint across
	// the wire.
	_, err := c.Query(context.Background(), `SELECT ABS(-9223372036854775807 - 1) FROM Orders`)
	var me *msql.Error
	if !errors.As(err, &me) || me.Code != msql.ErrRuntime {
		t.Fatalf("want positioned runtime error, got %v", err)
	}
	if me.Pos < 0 {
		t.Fatalf("runtime error lost its byte offset over the wire: %+v", me)
	}
}

// TestOverloadShedding: with 1 execution slot and 1 queue slot, a burst
// of slow statements must shed instead of queueing unboundedly, and the
// server must stay healthy throughout.
func TestOverloadShedding(t *testing.T) {
	db := testDB(t)
	release, _ := holdOperators(t)
	srv, ts := startServer(t, db, server.Config{
		MaxInflight: 1,
		MaxQueue:    1,
		QueueWait:   20 * time.Millisecond,
	})

	// Raw HTTP (no retries) so each request's first-shot outcome is visible.
	noRetry := client.Backoff{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond, Seed: 7}
	const n = 8
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(ts.URL, client.WithBackoff(noRetry))
			_, err := c.Query(context.Background(), slowQuery)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, msql.ErrResourceExhausted):
				shed.Add(1)
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	// Liveness while overloaded.
	hc := client.New(ts.URL)
	for i := 0; i < 5; i++ {
		if err := hc.Healthz(context.Background()); err != nil {
			t.Errorf("healthz under load: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The admitted statement is held until every other one is shed.
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().Shed == n-1 })
	release()
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatalf("no request succeeded")
	}
	if shed.Load() == 0 {
		t.Fatalf("no request was shed; admission control did not engage")
	}
	c := srv.Counters()
	if c.Shed == 0 {
		t.Fatalf("shed counter is 0; counters = %+v", c)
	}
	if got := c.Admitted + c.Shed + c.Rejected; got != c.Accepted {
		t.Fatalf("admission ledger out of balance: admitted %d + shed %d + rejected %d != accepted %d",
			c.Admitted, c.Shed, c.Rejected, c.Accepted)
	}
}

// TestGracefulDrain: inflight statements finish inside the drain
// budget, new work is rejected with 503, and nothing runs past Drain's
// return.
func TestGracefulDrain(t *testing.T) {
	db := testDB(t)
	release, lastFire := holdOperators(t)
	srv, ts := startServer(t, db, server.Config{
		MaxInflight:  4,
		DrainTimeout: 5 * time.Second,
	})
	c := client.New(ts.URL, client.WithBackoff(client.Backoff{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond, Seed: 3}))

	const inflight = 2
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(context.Background(), slowQuery)
		}(i)
	}
	// Let both statements get admitted before draining, and hold them
	// until the drain has begun.
	waitFor(t, time.Second, func() bool { return srv.Counters().Inflight == inflight })
	go func() {
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		release()
	}()

	srv.Drain(context.Background())
	drainReturned := time.Now()

	// Readiness flips, liveness stays.
	if err := c.Readyz(context.Background()); err == nil {
		t.Fatalf("readyz still OK after drain")
	}
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz failed after drain: %v", err)
	}
	// New work is rejected with the draining contract (503 → retryable,
	// but our client has Attempts=1 so it surfaces directly).
	if _, err := c.Query(context.Background(), `SELECT 1 AS x`); !errors.Is(err, msql.ErrResourceExhausted) {
		t.Fatalf("query against draining server: want ErrResourceExhausted, got %v", err)
	}

	wg.Wait()
	for i := 0; i < inflight; i++ {
		if errs[i] != nil {
			t.Fatalf("inflight statement %d failed during drain: %v", i, errs[i])
		}
	}
	// No engine work ran past Drain's return: the last operator
	// execution predates it.
	if last := time.Unix(0, lastFire.Load()); last.After(drainReturned) {
		t.Fatalf("an operator executed %v after Drain returned", last.Sub(drainReturned))
	}
	cs := srv.Counters()
	if cs.Drained != inflight || cs.DrainKilled != 0 {
		t.Fatalf("drain ledger: drained=%d killed=%d, want %d/0", cs.Drained, cs.DrainKilled, inflight)
	}
	if cs.Inflight != 0 || cs.Queued != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", cs)
	}
}

// TestDrainDeadlineCancelsStragglers: when inflight statements outlive
// the drain budget they are canceled through ExecContext — Drain still
// returns promptly and nothing runs past it.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	db := testDB(t)
	db.SetStrategy(msql.StrategyNaive)
	db.SetWorkers(1)
	srv, ts := startServer(t, db, server.Config{
		MaxInflight:  2,
		DrainTimeout: 30 * time.Millisecond,
	})
	// Operators are held until the drain deadline has passed, so the
	// statement cannot end first, and then take ~1ms each, so it is
	// still running when the cancellation reaches it.
	killed := server.DrainKilled(srv)
	exec.SetFailPoint(exec.FailOperator, func() error {
		<-killed
		time.Sleep(time.Millisecond)
		return nil
	})
	t.Cleanup(exec.ClearFailPoints)
	c := client.New(ts.URL, client.WithBackoff(client.Backoff{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond, Seed: 5}))

	done := make(chan error, 1)
	go func() {
		_, qerr := c.Query(context.Background(), slowQuery)
		done <- qerr
	}()
	waitFor(t, time.Second, func() bool { return srv.Counters().Inflight == 1 })

	start := time.Now()
	srv.Drain(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain with straggler took %v", elapsed)
	}
	err := <-done
	// The straggler was canceled; the server reports it as unavailable
	// (503) so a retrying client would fail over, and the taxonomy code
	// stays CANCELED end to end.
	if !errors.Is(err, msql.ErrCanceled) {
		t.Fatalf("straggler error: want ErrCanceled, got %v", err)
	}
	cs := srv.Counters()
	if cs.DrainKilled != 1 {
		t.Fatalf("drainKilled = %d, want 1 (counters %+v)", cs.DrainKilled, cs)
	}
}

// TestServerCountersInMetrics: the satellite contract — server counters
// surface in msql.Metrics() JSON and Prometheus output next to the
// engine's counters.
func TestServerCountersInMetrics(t *testing.T) {
	db := testDB(t)
	srv, ts := startServer(t, db, server.Config{})
	c := client.New(ts.URL, client.WithBackoff(fastBackoff(9)))
	if _, err := c.Query(context.Background(), listing3); err != nil {
		t.Fatal(err)
	}
	_ = srv

	snap := db.Metrics()
	if snap.Server == nil {
		t.Fatalf("MetricsSnapshot.Server is nil after registration")
	}
	if snap.Server.Admitted == 0 {
		t.Fatalf("server admitted counter not visible: %+v", snap.Server)
	}
	if !strings.Contains(snap.JSON(), `"server"`) {
		t.Fatalf("JSON output lacks server section")
	}
	prom := snap.Prometheus()
	for _, series := range []string{
		"msql_server_inflight", "msql_server_queued", "msql_server_shed_total",
		"msql_server_admitted_total", "msql_server_drain_killed_total",
		"msql_queries_canceled_total", // engine counters stay alongside
	} {
		if !strings.Contains(prom, series) {
			t.Fatalf("Prometheus output lacks %s", series)
		}
	}

	// And over HTTP.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "msql_server_admitted_total") {
		t.Fatalf("/metrics lacks server counters")
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
