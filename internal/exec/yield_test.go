package exec

import (
	"context"
	"errors"
	stdruntime "runtime"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// heldSource is a table whose rows are handed out only once release is
// closed: an execution scanning it stays in progress until then. With
// fail set the read panics instead.
type heldSource struct {
	testSource
	entered, release chan struct{}
	fail             bool
}

func (s *heldSource) Rows() [][]sqltypes.Value {
	close(s.entered)
	<-s.release
	if s.fail {
		panic("held scan fails")
	}
	return s.rows
}

// heldRun is an execution held open inside RunContext.
type heldRun struct {
	src    *heldSource
	cancel context.CancelFunc
	err    chan error
}

// hold starts a Filter over a 2 048-row held scan under limits and
// returns once the execution is inside the scan.
func hold(limits Limits, fail bool) *heldRun {
	rows := bigScan(2048)
	src := &heldSource{testSource: *rows.Source.(*testSource), entered: make(chan struct{}), release: make(chan struct{}), fail: fail}
	scan := &plan.Scan{Source: src, Sch: rows.Sch}
	ctx, cancel := context.WithCancel(context.Background())
	h := &heldRun{src: src, cancel: cancel, err: make(chan error, 1)}
	settings := DefaultSettings()
	settings.Limits = limits
	go func() {
		_, err := RunContext(ctx, &plan.Filter{Input: scan, Pred: gt(col(0, "a"), -1)}, settings)
		h.err <- err
	}()
	<-src.entered
	return h
}

// finish releases the held scan and returns the execution's error; it
// is called once per held execution.
func (h *heldRun) finish() error {
	close(h.src.release)
	err := <-h.err
	h.cancel()
	return err
}

// Each execution in progress takes one worker off every other
// execution's fan-out, down to the serial path, and gives it back when
// it ends — by a panic, a cancellation or a budget trip too. With four
// CPUs an Aggregate over four morsels fans out to 4, 3, 2, 1 workers
// while 0, 1, 2, 3 other executions run; an explicit Workers = 1 never
// fans out. A float SUM over an inner join, which folds its join only
// when the fold is serial, fuses once load makes it serial, and its rows
// are the serial run's.
func TestFanOutYieldsToRunningExecutions(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(4))
	if n := inProgress.Load(); n != 0 {
		t.Fatalf("%d executions in progress before the test", n)
	}

	agg := groupedBy(bigScan(4*morselRows), []plan.Expr{col(1, "b")}, nil, countStar, call("SUM", intT(), col(0, "a")))
	fanout := func(workers int) int64 {
		t.Helper()
		settings := DefaultSettings()
		settings.Workers = workers
		settings.Profile = NewProfile(agg)
		if _, err := Run(agg, settings); err != nil {
			t.Fatal(err)
		}
		return max(1, settings.Profile.NodeMetrics(nil, agg).Load().MaxWorkers)
	}

	// The join shape, its serial rows, and what materializing its join
	// would allocate.
	join := groupedBy(fuseJoin(plan.JoinInner, fuseProbe(10000), nil), []plan.Expr{col(2, "g")}, nil, countStar,
		call("SUM", floatT(), &plan.ColRef{Index: 3, Name: "f", Typ: floatT()}))
	serial := DefaultSettings()
	serial.Workers = 1
	want, err := Run(join, serial)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Run(join.Input, serial)
	if err != nil {
		t.Fatal(err)
	}
	joinBytes := rowsBytes(joined)
	// runJoin runs the join shape with the default bound and reports the
	// bytes the run allocated and its profile.
	runJoin := func() (uint64, *Profile) {
		t.Helper()
		settings := DefaultSettings()
		settings.Profile = NewProfile(join)
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		got, err := Run(join, settings)
		stdruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, "float SUM over a join", want, got)
		return after.TotalAlloc - before.TotalAlloc, settings.Profile
	}
	// Alone it fans out, so it materializes its join.
	if alloc, prof := runJoin(); int64(alloc) < joinBytes/2 || prof.NodeMetrics(nil, join).Load().MaxWorkers <= 1 {
		t.Fatalf("alone, the join shape allocates %d bytes (joined rows %d) on %d workers: want a materialized join, fanned out",
			alloc, joinBytes, prof.NodeMetrics(nil, join).Load().MaxWorkers)
	}

	var held []*heldRun
	ended := 0
	t.Cleanup(func() {
		for _, h := range held[ended:] {
			h.finish()
		}
	})
	endings := []struct {
		name   string
		limits Limits
		fail   bool
		want   error
	}{
		{"a budget trip", Limits{MaxRows: 10}, false, CodeResourceExhausted},
		{"a cancellation", Limits{}, false, CodeCanceled},
		{"a panic", Limits{}, true, CodeRuntime},
	}
	for k := 0; k <= 3; k++ {
		if k > 0 {
			e := endings[k-1]
			held = append(held, hold(e.limits, e.fail))
		}
		if n := inProgress.Load(); n != int64(k) {
			t.Fatalf("%d executions held, %d in progress", k, n)
		}
		if got := fanout(0); got != int64(4-k) {
			t.Fatalf("with %d other executions in progress the Aggregate fans out to %d workers, want %d", k, got, 4-k)
		}
		if got := fanout(1); got != 1 {
			t.Fatalf("with %d other executions in progress an explicit Workers = 1 fans out to %d workers", k, got)
		}
	}

	// Three others in progress: the join shape's fold is serial, so it
	// folds the join — it never makes the joined rows — and nothing fans
	// out.
	alloc, prof := runJoin()
	j, a := prof.NodeMetrics(nil, join.Input).Load(), prof.NodeMetrics(nil, join).Load()
	if int64(alloc) >= joinBytes/2 || j.RowsOut != int64(len(joined)) || j.Calls != 1 || j.MaxWorkers > 1 || a.MaxWorkers > 1 {
		t.Fatalf("under load, the join shape allocates %d bytes (joined rows %d), join rows=%d loops=%d workers=%d, aggregate workers=%d: want the join fused, serial",
			alloc, joinBytes, j.RowsOut, j.Calls, j.MaxWorkers, a.MaxWorkers)
	}

	// Each held execution ends its own way and gives its worker back.
	for i, h := range held {
		e := endings[i]
		if e.want == CodeCanceled {
			h.cancel()
		}
		ended++
		if err := h.finish(); !errors.Is(err, e.want) {
			t.Fatalf("held execution ending in %s: got %v, want %v", e.name, err, e.want)
		}
		left := int64(len(held) - 1 - i)
		if n := inProgress.Load(); n != left {
			t.Fatalf("after %s, %d executions in progress, want %d", e.name, n, left)
		}
		if got := fanout(0); got != 4-left {
			t.Fatalf("after %s the Aggregate fans out to %d workers, want %d", e.name, got, 4-left)
		}
	}
}
