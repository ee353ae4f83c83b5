package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Partial aggregation, both halves of scatter-gather. A coordinator
// pushes an aggregation query to each shard; instead of finishing the
// aggregates, the shard exports its grouping table — per-group
// fn.AggState partials — as one frame (AppendFrame), and the coordinator
// merges every shard's frame into one grouping table of its own plan
// (MergePartials): the Data Cube decomposition that makes distributed
// GROUP BY exact for every aggregate whose states merge exactly. A
// statement no shard can split runs whole on the coordinator over the
// shards' rows (RunGathered).

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
// cross-check the expected counts of its Aggregate, so a coordinator and
// shard that planned different texts can never silently merge
// mismatched state. With seq, the name of a column the Aggregate's input
// reads, every group carries one state more, last: the MIN of seq over
// the group's rows, folded by a copy of the Aggregate, so root is only
// read.
func PartialAggregate(ctx context.Context, root plan.Node, seq string, groups, aggs int, settings *Settings) (*PartialResult, error) {
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
	if seq != "" {
		if agg, err = withSequence(agg, seq); err != nil {
			return nil, err
		}
	}
	var out *PartialResult
	err = execute(ctx, settings, func(rt *runtime) error {
		env, err := newAggEnv(agg)
		if err != nil {
			return err
		}
		// The Aggregate's own fold, serial even on a parallel-capable
		// runtime: one grouping set, so one table, in first-input-row
		// order.
		fd, err := rt.openFeed(env, 1)
		if err != nil {
			return err
		}
		tables, _, err := rt.foldFeed(env, fd)
		if err != nil {
			return err
		}
		t := &tables[0]
		out = &PartialResult{Groups: make([]PartialGroup, len(t.groups))}
		for g := range out.Groups {
			out.Groups[g] = PartialGroup{Key: t.key(g), States: t.statesOf(g)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// withSequence is a copy of agg that also folds MIN(seq), seq a column
// of its input, as its last call.
func withSequence(agg *plan.Aggregate, seq string) (*plan.Aggregate, error) {
	for i, col := range agg.Input.Schema().Cols {
		if !strings.EqualFold(col.Name, seq) {
			continue
		}
		n := len(agg.Aggs)
		cp := *agg
		cp.Aggs = append(agg.Aggs[:n:n], plan.AggCall{Name: "MIN",
			Args: []plan.Expr{&plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ}}, KeyIndex: -1, Typ: col.Typ})
		cols := agg.Sch.Cols
		cp.Sch = &plan.Schema{Cols: append(cols[:len(cols):len(cols)], plan.Col{Name: col.Name, Typ: col.Typ})}
		return &cp, nil
	}
	return nil, partialShapeError("the aggregate reads no column %s", seq)
}

// AppendFrame appends the frame of groups, a shard's whole partial table
// in one buffer: a uvarint group count, then per group its key values
// (sqltypes.AppendValues) and its states (fn.AppendState), in order.
// MergePartials reads it.
func AppendFrame(dst []byte, groups []PartialGroup) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	for _, g := range groups {
		dst = sqltypes.AppendValues(dst, g.Key)
		for j, st := range g.States {
			var err error
			if dst, err = fn.AppendState(dst, st); err != nil {
				return dst, fmt.Errorf("aggregate %d: %w", j, err)
			}
		}
	}
	return dst, nil
}

// MergePartials is the coordinator's half: it merges the frames
// (AppendFrame) of every shard's partial table for root's Aggregate
// (PartialShape) into one grouping table, as the Aggregate's own fold
// would have built it, and runs what root stacks on the Aggregate over
// its groups. The empty-input row of a keyless Aggregate is made as a
// single node makes it.
//
// A frame's groups carry one state more than the Aggregate has calls:
// a MIN over the global sequence numbers of the group's rows on that
// shard (PartialAggregate with a sequence column). A group is found by its key (sqltypes.Value.AppendKey), as the
// fold finds it, so keys that are equal but differ in bytes (1 and 1.0)
// are one group. Its key values and its place in the output come from
// its piece with the lowest sequence, and its pieces merge as if in
// sequence order: a later piece folds into the group's states, an
// earlier one takes their place. Neither allocates a state: a piece is
// decoded into the group's own states when it makes the group and into
// the merge's scratch states otherwise. The answer is a single node's
// when every call's states merge interleaved (fn.Agg.MergesInterleaved),
// which the caller checks. A malformed frame is an error naming it,
// never a panic, and a count it claims beyond its bytes is refused
// before anything is allocated for it.
func MergePartials(ctx context.Context, root plan.Node, frames [][]byte, settings *Settings) ([]Row, error) {
	agg, err := PartialShape(root)
	if err != nil {
		return nil, err
	}
	var rows []Row
	err = execute(ctx, settings, func(rt *runtime) error {
		env, err := newAggEnv(agg)
		if err != nil {
			return err
		}
		m := env.newMerger()
		for i, frame := range frames {
			if err := m.merge(frame); err != nil {
				return fmt.Errorf("partial frame %d: %w", i, err)
			}
		}
		m.tables[0] = ordered(m.tables)
		groups, err := env.emit(m.tables, 0, nil)
		if err != nil {
			return err
		}
		rt.merged = &mergedAgg{agg: agg, rows: groups}
		rows, err = rt.run(root)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunGathered is the coordinator's answer to a statement its shards
// cannot split: it runs root as RunContext does, except that a Scan of
// a source in tables — and a context link (plan.RowLink) to one — reads
// the rows given for it there instead of the source's own. Given every
// shard's rows of a table in global insertion order, the answer is a
// single node's.
func RunGathered(ctx context.Context, root plan.Node, tables map[plan.RowSource][]Row, settings *Settings) ([]Row, error) {
	var rows []Row
	err := execute(ctx, settings, func(rt *runtime) (err error) {
		rt.sh.gathered = tables
		rows, err = rt.run(root)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// mergedAgg is an Aggregate's output made by MergePartials.
type mergedAgg struct {
	agg  *plan.Aggregate
	rows []Row
}

// merger merges frames into tables, the one table of env's Aggregate,
// whose groups' first rows are the lowest sequences of their pieces so
// far. scratch holds a piece's states when its group exists already, and
// every piece's sequence last; keyVals is a piece's key.
type merger struct {
	env     *aggEnv
	tables  []setTable
	scratch []fn.AggState
	keyVals []sqltypes.Value
}

func (env *aggEnv) newMerger() *merger {
	minDef, _ := fn.LookupAgg("MIN")
	scratch := append(env.newStates(), minDef.New([]sqltypes.Type{{Kind: sqltypes.KindInt}}))
	return &merger{env: env, tables: env.newTables(0), scratch: scratch}
}

// merge merges one frame's groups into the table.
func (m *merger) merge(frame []byte) error {
	env, t, scratch := m.env, &m.tables[0], m.scratch
	set := env.n.Sets[0]
	nk, na := len(env.n.GroupExprs), len(env.calls)
	r := sqltypes.NewReader(frame)
	count, err := r.Uvarint()
	if err != nil {
		return err
	}
	// A group takes at least its key's count byte and a tag per state.
	if count > uint64(r.Left()/(na+2)) {
		return fmt.Errorf("%d groups overrun the %d bytes left", count, r.Left())
	}
	for i := uint64(0); i < count; i++ {
		if m.keyVals, err = r.Values(m.keyVals); err != nil {
			return err
		}
		if len(m.keyVals) != nk {
			return fmt.Errorf("group %d has %d key values, want %d", i, len(m.keyVals), nk)
		}
		h := hashKey(set, m.keyVals)
		g := t.find(h, m.keyVals)
		fresh := g < 0
		piece := scratch[:na]
		if fresh {
			g = t.add(h, m.keyVals, 0)
			piece = t.statesOf(g)
		}
		for j, st := range piece {
			if _, err := fn.ReadState(&r, st); err != nil {
				return fmt.Errorf("group %d aggregate %d: %w", i, j, err)
			}
		}
		if _, err := fn.ReadState(&r, scratch[na]); err != nil {
			return fmt.Errorf("group %d sequence: %w", i, err)
		}
		seq := scratch[na].Result()
		if seq.Null || seq.K != sqltypes.KindInt {
			return fmt.Errorf("group %d has no sequence", i)
		}
		states := t.statesOf(g)
		switch order := int(seq.I); {
		case fresh:
			t.groups[g] = order
		case order < t.groups[g]:
			// The piece's rows come first: it is the receiver, and the
			// group's states become scratch.
			for j, st := range piece {
				if err := st.Merge(states[j]); err != nil {
					return err
				}
				states[j], piece[j] = st, states[j]
			}
			key := t.key(g)
			for _, j := range set {
				key[j] = m.keyVals[j]
			}
			t.groups[g] = order
		default:
			for j, st := range piece {
				if err := states[j].Merge(st); err != nil {
					return err
				}
			}
		}
	}
	if r.Left() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Left())
	}
	return nil
}

// PartialShape returns the Aggregate a plan splits at across shards:
// one Aggregate under nothing but the Project, Sort and Limit operators
// that finish it (any other operator above it means the answer is not a
// pure merge of per-shard groups), over nothing but Filters over one
// Scan, with one grouping set that covers every key, no GROUPING call,
// and no aggregate that needs the full row stream in one place
// (DISTINCT, WITHIN DISTINCT), carries a FILTER or folds a context
// link. A coordinator checks the plan it is about to scatter with it, a
// shard the plan it folds, and MergePartials the plan it finishes.
// Anything else is an ErrPartialUnsupported error.
func PartialShape(root plan.Node) (*plan.Aggregate, error) {
	var agg *plan.Aggregate
	for n := root; agg == nil; {
		switch t := n.(type) {
		case *plan.Project:
			n = t.Input
		case *plan.Sort:
			n = t.Input
		case *plan.Limit:
			n = t.Input
		case *plan.Aggregate:
			agg = t
		default:
			return nil, partialShapeError("plan has %T above the aggregate", n)
		}
	}
	for n := agg.Input; ; {
		if f, ok := n.(*plan.Filter); ok {
			n = f.Input
			continue
		}
		if _, ok := n.(*plan.Scan); !ok {
			return nil, partialShapeError("the aggregate reads %T, not a filtered scan", n)
		}
		break
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
