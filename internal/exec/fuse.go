package exec

// An Aggregate folds its input pipeline. When the Aggregate's input is a
// Filter, or a hash join whose probe side may itself be such a Filter,
// the Aggregate's row loop drives that chain morsel by morsel: each row
// the Filter passes, or the join produces, is folded into the
// grouping-set tables the moment it exists, and nothing between the
// scan (or the join's build side) and the aggregate states is
// materialized. The Filter's predicate loop (filterRows) and the hash
// join's probe (probe.emit) exist once, with two sinks each: one that
// materializes, for every other consumer, and the fold (aggFold).
//
// Eligibility is decided once per plan (planFusion, cached with the
// aggEnv) and checked against the execution (runtime.fusing). The
// Aggregate materializes its input when its own expressions or the
// chain's predicate or probe expressions are volatile or hold a subquery
// (those keep their own fan-out), when it runs vectorized, when the
// Filter is the one a partition answers from its kept rows, and below a
// join that emits rows after the probe (RIGHT, FULL) or has no equi
// keys. A fused join under an aggregate that is not chunkMergeable fuses
// only when the fold is serial — on a serial runtime, or when the
// executions in progress leave this one a single worker: the
// group-partitioned path reads its input twice.
//
// Order: a fused Filter's row has the order of its scan row, a fused
// join's row (probe row, rank of the match in its chain); both follow
// the order of the rows the operators would have made, so groups come
// out first-seen exactly as over the materialized input.
//
// Budget and EXPLAIN: the fused operators are charged what their
// materialized output would have cost (its row count, and that count
// times the estimated width of its first row), after the fold; their
// EXPLAIN ANALYZE lines show the rows they produced, the pipeline's
// inclusive time and its fan-out.

import (
	"time"

	"github.com/measures-sql/msql/internal/plan"
)

// fusion is the chain an Aggregate folds: a Filter over its source, a
// hash join, or a hash join whose probe side is a Filter. The zero value
// fuses nothing.
type fusion struct {
	filter *plan.Filter
	join   *plan.Join
}

// planFusion decides what n's row loop may run, from the plan alone.
func planFusion(n *plan.Aggregate) fusion {
	var agg exprTraits
	plan.VisitNodeExprs(n, func(e plan.Expr) { agg.add(e) })
	if agg != 0 {
		return fusion{}
	}
	filter := func(in plan.Node) *plan.Filter {
		if f, ok := in.(*plan.Filter); ok && traitsOf(f.Pred) == 0 {
			return f
		}
		return nil
	}
	j, ok := n.Input.(*plan.Join)
	if !ok {
		return fusion{filter: filter(n.Input)}
	}
	switch j.Kind {
	case plan.JoinInner, plan.JoinLeft, plan.JoinSemi:
	default:
		return fusion{}
	}
	probe := traitsOf(j.EquiLeft...)
	probe.add(j.Residual)
	if len(j.EquiLeft) == 0 || probe != 0 {
		return fusion{}
	}
	return fusion{filter: filter(j.Left), join: j}
}

// fusing returns what env's Aggregate folds in this execution; serial
// reports a fold that will not fan out, whatever the runtime's bound.
func (rt *runtime) fusing(env *aggEnv, serial bool) fusion {
	fu := env.fuse
	if rt.sh.settings.Vectorized {
		return fusion{}
	}
	if p := rt.part; p != nil && p.fold == keepRows && p.filter == fu.filter {
		fu.filter = nil
	}
	if fu.join != nil && !serial && rt.workers > 1 && !env.chunkMergeable() {
		return fusion{}
	}
	return fu
}

// feed is what an Aggregate's row loop walks: the rows of its input, or
// the source rows of a fused chain and the operators it applies to each.
type feed struct {
	// rows are the input, a fused Filter's input, or a fused join's
	// probe rows (its probe Filter's input when that is fused too).
	rows []Row
	fu   fusion
	pred predFn      // the fused Filter's predicate
	join *joinSource // the fused join's build side
	// workers bounds the fold's fan-out; 1 keeps it serial.
	workers int
	// start is when the chain began to run; passes is what each chunk's
	// pass produced.
	start  time.Time
	passes []passTally
}

// joinSource is a fused hash join's built side.
type joinSource struct {
	env   *joinEnv
	index *joinIndex
	right []Row
}

func (fd *feed) fused() bool { return fd.fu != fusion{} }

// openFeed runs what the Aggregate of env folds over at most workers
// workers: its input, or the sources of the chain it fuses and the
// join's build side.
func (rt *runtime) openFeed(env *aggEnv, workers int) (*feed, error) {
	n := env.n
	fd := &feed{fu: rt.fusing(env, workers <= 1), workers: workers}
	if !fd.fused() {
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		fd.rows = in
		return fd, nil
	}
	fd.start = time.Now()
	// Each fused operator passes the failpoint its own run would have.
	src := n.Input
	if j := fd.fu.join; j != nil {
		if err := failpoint(FailOperator); err != nil {
			return nil, err
		}
		src = j.Left
	}
	if f := fd.fu.filter; f != nil {
		if err := failpoint(FailOperator); err != nil {
			return nil, err
		}
		fd.pred = rt.filterPred(f)
		src = f.Input
	}
	var err error
	if fd.rows, err = rt.run(src); err != nil {
		return nil, err
	}
	if j := fd.fu.join; j != nil {
		js := &joinSource{env: newJoinEnv(rt, j)}
		if js.right, err = rt.run(j.Right); err != nil {
			return nil, err
		}
		if js.index, err = rt.buildJoinIndex(js.env.prog.right, js.right); err != nil {
			return nil, err
		}
		fd.join = js
	}
	return fd, nil
}

// A rowSink takes the rows an operator loop produces, each with its
// place in the operator's output order.
type rowSink interface {
	emit(w *runtime, row Row, order int) error
}

// A joinSink also hands out the rows a join builds its output in: next
// returns one to fill, reuse takes back one that was not emitted.
type joinSink interface {
	rowSink
	next() Row
	reuse(Row)
}

// A foldSink is the last sink of a chain, which counts what it took.
type foldSink interface {
	rowSink
	count() *tally
}

// emitRows hands rows[lo:hi] to sink: the loop over a materialized input.
func emitRows(w *runtime, rows []Row, lo, hi int, sink rowSink) error {
	for i := lo; i < hi; i++ {
		if err := w.tick(); err != nil {
			return err
		}
		if err := sink.emit(w, rows[i], i); err != nil {
			return err
		}
	}
	return nil
}

// tally counts the rows an operator produced and estimates, from the
// first, their width: what rowsBytes charges a materialized output.
type tally struct {
	rows int
	per  int64
}

func (t *tally) add(row Row) {
	if t.rows == 0 {
		t.per = rowBytes(row)
	}
	t.rows++
}

// passTally is what one chunk's pass made of each fused operator: the
// Filter's (or the probe Filter's) kept rows, and the join's rows.
type passTally struct{ filter, join tally }

// tallies makes room for what chunks passes of a fused chain produce.
func (fd *feed) tallies(chunks int) []passTally {
	if !fd.fused() {
		return nil
	}
	return make([]passTally, chunks)
}

// pass runs source rows [lo, hi) of fd, chunk chunk of the run, through
// the fused operators into out, and records what each produced.
func (fd *feed) pass(w *runtime, chunk, lo, hi int, out foldSink) error {
	var sink rowSink = out
	var pr *probe
	if js := fd.join; js != nil {
		pr = &probe{env: js.env, index: js.index, right: js.right, out: out.(joinSink)}
		sink = pr
	}
	var err error
	if fd.pred != nil {
		err = w.filterRows(fd.pred, fd.rows, lo, hi, sink)
	} else {
		err = emitRows(w, fd.rows, lo, hi, sink)
	}
	t := &fd.passes[chunk]
	if pr != nil {
		t.filter, t.join = pr.in, *out.count()
	} else {
		t.filter = *out.count()
	}
	return err
}

// noteFanout records the fold's fan-out on every fused operator.
func (fd *feed) noteFanout(rt *runtime, workers int) {
	if f := fd.fu.filter; f != nil {
		rt.noteFanout(f, workers)
	}
	if j := fd.fu.join; j != nil {
		rt.noteFanout(j, workers)
	}
}

// settle charges each fused operator, Filter before join, what its
// materialized output would have cost, records it for EXPLAIN ANALYZE,
// and returns the number of rows the Aggregate folded.
func (rt *runtime) settle(fd *feed) (int, error) {
	var sum passTally
	for _, t := range fd.passes {
		sum.filter.merge(t.filter)
		sum.join.merge(t.join)
	}
	ns := int64(time.Since(fd.start))
	charge := func(n plan.Node, t tally) error {
		if p := rt.sh.prof; p != nil {
			p.NodeMetrics(rt.sub, n).Record(t.rows, ns)
		}
		rt.inputRows = t.rows
		return rt.sh.bud.noteRows(t.rows, int64(t.rows)*t.per)
	}
	if f := fd.fu.filter; f != nil {
		if err := charge(f, sum.filter); err != nil {
			return 0, err
		}
	}
	if j := fd.fu.join; j != nil {
		if err := charge(j, sum.join); err != nil {
			return 0, err
		}
	}
	return rt.inputRows, nil
}

// merge adds a later chunk's tally: the first row is the earliest
// chunk's that has one.
func (t *tally) merge(o tally) {
	if t.rows == 0 {
		t.per = o.per
	}
	t.rows += o.rows
}
