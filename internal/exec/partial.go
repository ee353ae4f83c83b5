package exec

import (
	"context"
	"errors"
	"fmt"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Partial aggregation: the shard-side half of scatter-gather. A
// coordinator pushes an aggregation query to each shard; instead of
// finishing the aggregates, the shard exports per-group fn.AggState
// partials for the coordinator to Merge across shards — the Data Cube
// decomposition that makes distributed GROUP BY exact for every
// aggregate whose states merge exactly.

// ErrPartialUnsupported reports a plan whose shape the partial path
// cannot export (set operations, grouping sets, DISTINCT aggregates,
// window functions above the aggregate, …). Coordinators treat it as
// "run this query another way", not as a failure.
var ErrPartialUnsupported = errors.New("query shape not supported for partial aggregation")

// PartialGroup is one group's exported state: the GROUP BY key values
// and one partial state per aggregate call in plan order.
type PartialGroup struct {
	Key    []sqltypes.Value
	States []fn.AggState
}

// PartialResult is a shard's answer to a partial-aggregation request.
// Groups are sorted by first appearance in the shard's input. An empty
// input yields zero groups even for a global aggregate — synthesizing
// the empty-input row is the coordinator's job, exactly once.
type PartialResult struct {
	Groups []PartialGroup
}

// PartialAggregate evaluates the scan/filter/group phase of an
// aggregation plan and exports partial states instead of final values.
// The plan must have the shape PartialShape accepts; groups and aggs
// cross-check the expected counts so a coordinator and shard that
// planned different texts can never silently merge mismatched state.
func PartialAggregate(ctx context.Context, root plan.Node, groups, aggs int, settings *Settings) (res *PartialResult, err error) {
	inProgress.Add(1)
	defer inProgress.Add(-1)
	if settings == nil {
		settings = DefaultSettings()
	}
	if t := settings.Limits.Timeout; t > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, PanicError(r, PhaseExecute)
		}
		err = Wrap(err, CodeRuntime, PhaseExecute)
	}()

	agg, err := PartialShape(root)
	if err != nil {
		return nil, err
	}
	if len(agg.GroupExprs) != groups || len(agg.Aggs) != aggs {
		return nil, &Error{
			Code:  CodeBind,
			Phase: PhaseBind,
			Err: fmt.Errorf("partial aggregation shape mismatch: plan has %d keys and %d aggregates, request expects %d and %d",
				len(agg.GroupExprs), len(agg.Aggs), groups, aggs),
		}
	}

	env, err := newAggEnv(agg)
	if err != nil {
		return nil, err
	}
	rt := newRuntime(ctx, settings)
	// The Aggregate's own fold, serial even on a parallel-capable
	// runtime: one grouping set, so one table, in first-input-row order.
	fd, err := rt.openFeed(env, 1)
	if err != nil {
		return nil, err
	}
	tables, _, err := rt.foldFeed(env, fd)
	if err != nil {
		return nil, err
	}

	accs := make([]*groupAcc, 0, len(tables[0].groups))
	for _, acc := range tables[0].groups {
		accs = append(accs, acc)
	}
	sortAccs(accs)
	out := &PartialResult{Groups: make([]PartialGroup, len(accs))}
	for i, acc := range accs {
		out.Groups[i] = PartialGroup{Key: acc.keyVals, States: acc.states}
	}
	return out, nil
}

// PartialShape returns the Aggregate of a plan whose per-group states
// merge group-wise across shards: one Aggregate under nothing but the
// Projects the planner stacks on top for select-list shaping (any other
// operator above it means the query's final answer is not a pure merge
// of per-shard groups), with one grouping set that covers every key, no
// GROUPING call, and no aggregate that needs the full row stream in one
// place (DISTINCT, WITHIN DISTINCT) or carries a FILTER. A coordinator
// checks the plan it is about to push with it; a shard checks the plan
// it was sent. Anything else is an ErrPartialUnsupported error.
func PartialShape(root plan.Node) (*plan.Aggregate, error) {
	n := root
	for {
		p, ok := n.(*plan.Project)
		if !ok {
			break
		}
		n = p.Input
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok {
		return nil, partialShapeError("plan has %T above the aggregate", n)
	}
	if len(agg.Sets) != 1 {
		return nil, partialShapeError("%d grouping sets", len(agg.Sets))
	}
	if len(agg.Sets[0]) != len(agg.GroupExprs) {
		return nil, partialShapeError("grouping set covers %d of %d keys", len(agg.Sets[0]), len(agg.GroupExprs))
	}
	for _, call := range agg.Aggs {
		switch {
		case call.Name == "GROUPING":
			return nil, partialShapeError("GROUPING call")
		case call.Link != nil:
			return nil, partialShapeError("POSITIONS call: a context link by position reads every shard's rows")
		case call.Distinct || len(call.WithinDistinct) > 0:
			return nil, partialShapeError("%s with DISTINCT needs the full row stream in one place", call.Name)
		case call.Filter != nil:
			return nil, partialShapeError("%s with FILTER", call.Name)
		}
	}
	return agg, nil
}

func partialShapeError(format string, args ...any) error {
	return &Error{
		Code:  CodeBind,
		Phase: PhaseBind,
		Err:   fmt.Errorf("%w: %s", ErrPartialUnsupported, fmt.Sprintf(format, args...)),
	}
}
