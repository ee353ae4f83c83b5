package exec

// Resource governance. Limits caps what one statement may consume; the
// budget tracks consumption across every worker goroutine of a query
// with coarse per-operator accounting, so a runaway query (a cross join
// under StrategyNaive, a deeply nested measure expansion) trips a
// structured CodeResourceExhausted error instead of eating the host.

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// Limits bounds one statement's resource consumption. The zero value
// means unlimited in every dimension.
type Limits struct {
	// MaxRows caps the total rows materialized by all operators of the
	// statement (including subquery re-executions), a proxy for work
	// done. 0 = unlimited.
	MaxRows int64
	// MaxMemBytes caps the estimated bytes of materialized operator
	// output, accounted coarsely per operator (row count × sampled row
	// width). 0 = unlimited.
	MaxMemBytes int64
	// MaxSubqueryEvals caps actual subquery plan executions; it bounds
	// the blow-up of the naive correlated-subquery strategy. 0 = unlimited.
	MaxSubqueryEvals int64
	// MaxExpansionDepth caps the nesting depth of measure/subquery
	// evaluation frames (recursive measure references). 0 = unlimited.
	MaxExpansionDepth int
	// Timeout is the per-statement wall-clock deadline, covering
	// planning and execution. 0 = none.
	Timeout time.Duration
}

// budget is the per-query consumption ledger shared by all workers.
// Counters are atomic; limits are read-only after construction.
type budget struct {
	limits    Limits
	rows      atomic.Int64
	memBytes  atomic.Int64
	subqEvals atomic.Int64
}

func exhausted(hint, format string, args ...any) *Error {
	return &Error{
		Code:  CodeResourceExhausted,
		Phase: PhaseExecute,
		Pos:   -1,
		Hint:  hint,
		Err:   fmt.Errorf(format, args...),
	}
}

// noteRows charges n materialized rows of approximately bytes total to
// the budget and reports whether a limit tripped.
func (b *budget) noteRows(n int, bytes int64) error {
	if n == 0 {
		return nil
	}
	rows := b.rows.Add(int64(n))
	if b.limits.MaxRows > 0 && rows > b.limits.MaxRows {
		return exhausted("raise Limits.MaxRows or add filters",
			"row budget exhausted: %d rows materialized (limit %d)", rows, b.limits.MaxRows)
	}
	return b.noteMem(bytes)
}

// noteMem charges bytes held outside any operator's output (the
// partition index of a subquery) to the memory budget.
func (b *budget) noteMem(bytes int64) error {
	if b.limits.MaxMemBytes <= 0 || bytes == 0 {
		return nil
	}
	if mem := b.memBytes.Add(bytes); mem > b.limits.MaxMemBytes {
		return exhausted("raise Limits.MaxMemBytes or reduce intermediate result sizes",
			"memory budget exhausted: ~%d bytes materialized (limit %d)", mem, b.limits.MaxMemBytes)
	}
	return nil
}

// noteSubqueryEval charges one subquery plan execution at the given
// evaluation-frame depth.
func (b *budget) noteSubqueryEval(depth int) error {
	if max := b.limits.MaxExpansionDepth; max > 0 && depth > max {
		return exhausted("raise Limits.MaxExpansionDepth or flatten the measure definition",
			"measure/subquery expansion depth %d exceeds limit %d", depth, max)
	}
	if max := b.limits.MaxSubqueryEvals; max > 0 {
		if evals := b.subqEvals.Add(1); evals > max {
			return exhausted("raise Limits.MaxSubqueryEvals or use a memoizing strategy",
				"subquery evaluation budget exhausted: %d evaluations (limit %d)", evals, max)
		}
	}
	return nil
}

// rowsBytes estimates the memory footprint of a materialized row slice
// by sampling the first row: operators produce uniform-width rows, so
// count × sampled width is a fair coarse estimate.
const (
	bytesPerRow   = 48 // slice header + backing array slack
	bytesPerValue = 24
	bytesPerState = 48 // one fn.AggState: interface word pair + the state
)

func rowsBytes(rows []Row) int64 {
	if len(rows) == 0 {
		return 0
	}
	return rowBytes(rows[0]) * int64(len(rows))
}

// rowBytes is the estimated footprint of one materialized row.
func rowBytes(row Row) int64 {
	per := int64(bytesPerRow)
	for _, v := range row {
		per += bytesPerValue
		if v.K == sqltypes.KindString {
			per += int64(len(v.S))
		}
	}
	return per
}
