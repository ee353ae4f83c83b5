package msql_test

// Cancellation tests (run under -race in CI): a context canceled
// mid-query must stop the statement cooperatively with ErrCanceled,
// leak no goroutines, leave the session usable, and do so promptly even
// with parallel workers in flight.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// measureDB is bigDB plus a measure view, so cancellation also crosses
// the measure-subquery machinery of each strategy.
func measureDB(t testing.TB) *msql.DB {
	t.Helper()
	db := msql.Open()
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

const cancelQuery = `SELECT b, AGGREGATE(sumA) FROM bigM GROUP BY b ORDER BY b`

// cancelOnce arms a FailOperator hook that cancels on its first firing
// and slows every operator slightly, so the statement is reliably in
// flight when the cancellation lands.
func cancelOnce(cancel context.CancelFunc) {
	var once sync.Once
	exec.SetFailPoint(exec.FailOperator, func() error {
		once.Do(cancel)
		time.Sleep(time.Millisecond)
		return nil
	})
}

// waitGoroutines waits for the goroutine count to drain back to at most
// base+slack, retrying because exiting workers need a beat to unwind.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelHammer(t *testing.T) {
	strategies := []struct {
		name string
		s    msql.Strategy
	}{
		{"default", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	}
	for _, workers := range []int{1, 4} {
		for _, st := range strategies {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, st.name), func(t *testing.T) {
				db := measureDB(t)
				db.SetStrategy(st.s)
				db.SetWorkers(workers)
				base := runtime.NumGoroutine()
				const iterations = 5
				for i := 0; i < iterations; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					cancelOnce(cancel)
					_, err := db.QueryContext(ctx, cancelQuery)
					exec.ClearFailPoints()
					cancel()
					if !errors.Is(err, msql.ErrCanceled) {
						t.Fatalf("iteration %d: want ErrCanceled, got %v", i, err)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("iteration %d: must unwrap to context.Canceled, got %v", i, err)
					}
				}
				waitGoroutines(t, base)
				if got := db.Metrics().Canceled; got != iterations {
					t.Fatalf("Canceled metric = %d, want %d", got, iterations)
				}
				// The session stays fully usable.
				res, err := db.Query(cancelQuery)
				if err != nil {
					t.Fatalf("post-cancel query: %v", err)
				}
				if len(res.Rows) != 97 {
					t.Fatalf("post-cancel rows = %d, want 97", len(res.Rows))
				}
			})
		}
	}
}

// TestCancelLatency checks the acceptance budget: with four workers mid
// query, cancellation must surface within 50ms (ticks fire every 1024
// rows, so the bound is dominated by the injected 1ms operator delay).
// The second case cancels as the memo strategy's second context starts,
// i.e. while the partition of the measure's 20 000-row base is being
// built (or waited for by the other workers): the build polls the
// context every 1024 rows like any row loop, and nothing is left behind.
func TestCancelLatency(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy msql.Strategy
		point    exec.FailPoint
		firing   int64
	}{
		{"mid-query", msql.StrategyDefault, exec.FailOperator, 1},
		{"partition-build", msql.StrategyMemo, exec.FailSubqueryEval, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := measureDB(t)
			db.SetStrategy(tc.strategy)
			db.SetWorkers(4)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{})
			var firings atomic.Int64
			signal := func() {
				if firings.Add(1) == tc.firing {
					close(started)
				}
			}
			exec.SetFailPoint(exec.FailOperator, func() error {
				if tc.point == exec.FailOperator {
					signal()
				}
				time.Sleep(time.Millisecond)
				return nil
			})
			exec.SetFailPoint(exec.FailSubqueryEval, func() error {
				if tc.point == exec.FailSubqueryEval {
					signal()
				}
				return nil
			})
			defer exec.ClearFailPoints()
			errCh := make(chan error, 1)
			go func() {
				_, err := db.QueryContext(ctx, cancelQuery)
				errCh <- err
			}()
			<-started
			start := time.Now()
			cancel()
			err := <-errCh
			latency := time.Since(start)
			if !errors.Is(err, msql.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if latency > 50*time.Millisecond {
				t.Fatalf("cancellation took %v, budget is 50ms", latency)
			}
			exec.ClearFailPoints()
			waitGoroutines(t, base)
		})
	}
}

// TestPreCanceledContext never starts executing: the statement is
// rejected up front.
func TestPreCanceledContext(t *testing.T) {
	db := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT 1`)
	if !errors.Is(err, msql.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestContextDeadline exercises a caller-supplied deadline (as opposed
// to Limits.Timeout) mapping to ErrTimeout.
func TestContextDeadline(t *testing.T) {
	db := measureDB(t)
	exec.SetFailPoint(exec.FailOperator, func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	defer exec.ClearFailPoints()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, cancelQuery)
	if !errors.Is(err, msql.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}
