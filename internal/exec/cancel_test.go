package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// bigFilter wraps bigScan(n) in a Filter so execution walks a per-row
// loop with cancellation ticks.
func bigFilter(n int) *plan.Filter {
	return &plan.Filter{
		Input: bigScan(n),
		Pred: &plan.Call{Name: "<", Typ: boolT(),
			Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(40)}}},
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	settings := DefaultSettings()
	settings.Workers = 1
	_, err := RunContext(ctx, bigFilter(5000), settings)
	if !errors.Is(err, CodeCanceled) {
		t.Fatalf("want CodeCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must unwrap to context.Canceled, got %v", err)
	}
	var ee *Error
	if !errors.As(err, &ee) {
		t.Fatalf("error must be *Error, got %T", err)
	}
	if ee.Code != CodeCanceled {
		t.Fatalf("Code = %v, want CodeCanceled", ee.Code)
	}
}

func TestRunContextCancelMidQuery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The operator failpoint sleeps so the query is reliably
			// in flight when cancel fires.
			var once sync.Once
			SetFailPoint(FailOperator, func() error {
				once.Do(cancel)
				time.Sleep(2 * time.Millisecond)
				return nil
			})
			defer ClearFailPoints()
			settings := DefaultSettings()
			settings.Workers = workers
			_, err := RunContext(ctx, bigFilter(20000), settings)
			if !errors.Is(err, CodeCanceled) {
				t.Fatalf("want CodeCanceled, got %v", err)
			}
		})
	}
}

func TestRunContextTimeoutLimit(t *testing.T) {
	// No deadline on the context: the executor derives one from
	// Limits.Timeout. The operator failpoint outsleeps it.
	SetFailPoint(FailOperator, func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	defer ClearFailPoints()
	settings := DefaultSettings()
	settings.Workers = 1
	settings.Limits.Timeout = time.Millisecond
	_, err := RunContext(context.Background(), bigFilter(20000), settings)
	if !errors.Is(err, CodeTimeout) {
		t.Fatalf("want CodeTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error must unwrap to context.DeadlineExceeded, got %v", err)
	}
}

func TestMaxRowsTrip(t *testing.T) {
	settings := DefaultSettings()
	settings.Workers = 1
	settings.Limits.MaxRows = 100
	_, err := RunContext(context.Background(), bigFilter(5000), settings)
	if !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("want CodeResourceExhausted, got %v", err)
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Hint == "" {
		t.Fatalf("resource errors must carry a hint, got %v", err)
	}
}

func TestMaxMemBytesTrip(t *testing.T) {
	settings := DefaultSettings()
	settings.Workers = 1
	settings.Limits.MaxMemBytes = 256
	_, err := RunContext(context.Background(), bigFilter(5000), settings)
	if !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("want CodeResourceExhausted, got %v", err)
	}
}

func TestLimitsUntrippedUnchanged(t *testing.T) {
	want, err := Run(bigFilter(5000), DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	settings := DefaultSettings()
	settings.Limits = Limits{
		MaxRows: 1 << 40, MaxMemBytes: 1 << 40,
		MaxSubqueryEvals: 1 << 40, MaxExpansionDepth: 1 << 20,
	}
	got, err := RunContext(context.Background(), bigFilter(5000), settings)
	if err != nil {
		t.Fatalf("untripped limits must not fail: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: got %d, want %d", len(got), len(want))
	}
}

func TestBudgetCounters(t *testing.T) {
	b := &budget{limits: Limits{MaxRows: 10, MaxMemBytes: 1000, MaxSubqueryEvals: 2, MaxExpansionDepth: 3}}
	if err := b.noteRows(10, 500); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := b.noteRows(1, 1); !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("row trip: got %v", err)
	}
	b2 := &budget{limits: Limits{MaxMemBytes: 100}}
	if err := b2.noteRows(1, 101); !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("mem trip: got %v", err)
	}
	b3 := &budget{limits: Limits{MaxSubqueryEvals: 2, MaxExpansionDepth: 3}}
	if err := b3.noteSubqueryEval(1); err != nil {
		t.Fatalf("eval 1: %v", err)
	}
	if err := b3.noteSubqueryEval(1); err != nil {
		t.Fatalf("eval 2: %v", err)
	}
	if err := b3.noteSubqueryEval(1); !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("eval trip: got %v", err)
	}
	if err := b3.noteSubqueryEval(4); !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("depth trip: got %v", err)
	}
	if err := (&budget{}).noteRows(1<<30, 1<<40); err != nil {
		t.Fatalf("zero limits mean unlimited: %v", err)
	}
}

func TestRowsBytesEstimate(t *testing.T) {
	if got := rowsBytes(nil); got != 0 {
		t.Fatalf("empty: %d", got)
	}
	rows := []Row{
		{sqltypes.NewInt(1), sqltypes.NewString("hello")},
		{sqltypes.NewInt(2), sqltypes.NewString("x")},
	}
	per := int64(bytesPerRow + 2*bytesPerValue + len("hello"))
	if got := rowsBytes(rows); got != per*2 {
		t.Fatalf("rowsBytes = %d, want %d", got, per*2)
	}
}

// TestMemoWaitCancel parks a waiter on an in-flight memo computation and
// cancels its context: the waiter must return promptly with CodeCanceled
// instead of blocking on the computing goroutine.
func TestMemoWaitCancel(t *testing.T) {
	cache := new(memoCache)
	sq := &plan.Subquery{}
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = cache.do(context.Background(), sq, []byte("k"), func(e *memoEntry) {
			close(computing)
			<-release
			e.scalar = sqltypes.NewInt(1)
		})
	}()
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := cache.do(ctx, sq, []byte("k"), func(e *memoEntry) {
		t.Error("waiter must not recompute")
	})
	if !errors.Is(err, CodeCanceled) {
		t.Fatalf("want CodeCanceled, got %v", err)
	}
	close(release)
	// After the computation finishes, a fresh lookup hits the cache.
	e, hit, err := cache.do(context.Background(), sq, []byte("k"), func(e *memoEntry) {
		t.Error("must be a cache hit")
	})
	if err != nil || !hit || e.scalar.I != 1 {
		t.Fatalf("post-release lookup: e=%v hit=%v err=%v", e, hit, err)
	}
}

// TestMemoComputePanicPoisons checks a panicking compute closes the entry
// so waiters are not stranded, and the panic still propagates.
func TestMemoComputePanicPoisons(t *testing.T) {
	cache := new(memoCache)
	sq := &plan.Subquery{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate out of do")
			}
		}()
		_, _, _ = cache.do(context.Background(), sq, []byte("k"), func(e *memoEntry) {
			panic("boom")
		})
	}()
	e, hit, err := cache.do(context.Background(), sq, []byte("k"), func(e *memoEntry) {
		t.Error("poisoned entry must not recompute")
	})
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if !errors.Is(e.err, CodeRuntime) {
		t.Fatalf("poisoned entry error = %v, want CodeRuntime", e.err)
	}
}

func TestWorkerStartPanicRecovered(t *testing.T) {
	SetFailPoint(FailWorkerStart, func() error { panic("injected worker panic") })
	defer ClearFailPoints()
	settings := DefaultSettings()
	settings.Workers = 4
	_, err := RunContext(context.Background(), bigFilter(20000), settings)
	if !errors.Is(err, CodeRuntime) {
		t.Fatalf("want CodeRuntime from recovered panic, got %v", err)
	}
	var ee *Error
	if !errors.As(err, &ee) {
		t.Fatalf("want *Error, got %T", err)
	}
}

func TestFailOperatorError(t *testing.T) {
	injected := errors.New("injected operator failure")
	SetFailPoint(FailOperator, func() error { return injected })
	defer ClearFailPoints()
	_, err := Run(bigFilter(5000), DefaultSettings())
	if !errors.Is(err, injected) {
		t.Fatalf("want injected error in chain, got %v", err)
	}
	if !errors.Is(err, CodeRuntime) {
		t.Fatalf("want CodeRuntime classification, got %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	SetFailPoint(FailOperator, func() error { panic("operator panic") })
	defer ClearFailPoints()
	_, err := Run(bigFilter(5000), DefaultSettings())
	if !errors.Is(err, CodeRuntime) {
		t.Fatalf("want CodeRuntime, got %v", err)
	}
}
