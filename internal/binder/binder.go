// Package binder performs semantic analysis: it resolves names against
// the catalog, type-checks expressions, and lowers ASTs to logical plans.
// It is also where the paper's measure semantics are driven from: measure
// definitions (AS MEASURE) become plan.MeasureInfo metadata, and every
// measure *use* is expanded — with internal/core — into a correlated
// scalar subquery whose WHERE clause is the reified evaluation context
// (paper §4.2).
package binder

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Binder binds statements against a catalog.
type Binder struct {
	cat       *catalog.Catalog
	ctes      map[string]*cteDef
	viewDepth int
	inline    bool
	// positionFold: see WithPositionFold.
	positionFold bool
	// inlined records the measures the §6.4 fast path replaced with plain
	// aggregate calls during the last bind, for lifecycle tracing.
	inlined []string
	// expansions, when non-nil, records each measure reference's
	// expansion (Expansions).
	expansions map[*ast.Ident]Expansion
	// params holds the declared kinds of prepared-statement parameters;
	// $n binds to params[n-1]. Nil means parameters are rejected.
	params []sqltypes.Kind
}

type cteDef struct {
	name   string
	node   plan.Node
	schema *plan.Schema
}

// New creates a Binder over cat.
func New(cat *catalog.Catalog) *Binder {
	return &Binder{cat: cat, ctes: map[string]*cteDef{}, inline: true, positionFold: true}
}

// WithInline toggles the measure-inlining fast path (paper §6.4: "in
// simple cases ... it may be valid to inline the measure definition").
// When off, every measure reference expands to a correlated subquery —
// the general strategy — which the benchmarks use as an ablation.
func (b *Binder) WithInline(on bool) *Binder {
	b.inline = on
	return b
}

// WithPositionFold chooses how a context link finds its group's
// positions (aggBinder.addLink). On — the memo strategies — the
// Aggregate folds them as it folds the group's rows. Off — the naive
// strategy — every link read re-runs the query's FROM tree for its
// group, the paper's literal rewrite.
func (b *Binder) WithPositionFold(on bool) *Binder {
	b.positionFold = on
	return b
}

// InlinedMeasures returns the names of measures inlined into plain
// aggregates during binding, in the order the rewrite fired.
func (b *Binder) InlinedMeasures() []string { return b.inlined }

// WithParams declares the types of the prepared-statement parameters the
// query may reference: $n binds with kind kinds[n-1]. Without it, any
// parameter reference is a bind error.
func (b *Binder) WithParams(kinds []sqltypes.Kind) *Binder {
	b.params = kinds
	return b
}

// Rel is one relation visible in a scope frame. If Exprs is non-nil the
// relation is virtual (e.g. a measure's dimension frame) and resolving
// column i yields Exprs[i] instead of a ColRef.
type Rel struct {
	Alias  string
	Cols   []plan.Col
	Offset int
	Exprs  []plan.Expr
	Using  map[string]bool
	// AnyAlias relations match any qualifier (used for the synthetic
	// call-site frame of aggregate queries, where o.prodName must resolve
	// to the group key named prodName).
	AnyAlias bool
	// node is the plan of a FROM item, found again in the FROM tree at
	// Offset when a context link rewrites it to carry positions.
	node plan.Node
}

// Scope is one name-resolution frame; parent frames are other query
// levels (crossing one adds a correlation level).
type Scope struct {
	parent *Scope
	rels   []*Rel
}

func (s *Scope) child() *Scope { return &Scope{parent: s} }

// width returns the total number of columns in the frame's row.
func (s *Scope) width() int {
	n := 0
	for _, r := range s.rels {
		n += len(r.Cols)
	}
	return n
}

// resolved is the result of name resolution.
type resolved struct {
	expr   plan.Expr
	col    plan.Col
	levels int
	rel    *Rel
	index  int // flattened index within the frame row
}

var errNotFound = fmt.Errorf("not found")

// resolve finds a column by optional qualifier and name, searching the
// current frame then parents (adding correlation levels).
func (s *Scope) resolve(qual, name string) (resolved, error) {
	for level, frame := 0, s; frame != nil; level, frame = level+1, frame.parent {
		var hits []resolved
		for _, rel := range frame.rels {
			if qual != "" && !rel.AnyAlias && !strings.EqualFold(rel.Alias, qual) {
				continue
			}
			for i, col := range rel.Cols {
				if !strings.EqualFold(col.Name, name) {
					continue
				}
				idx := rel.Offset + i
				var e plan.Expr
				if rel.Exprs != nil {
					if level > 0 {
						return resolved{}, fmt.Errorf("cannot correlate into a dimension scope: %s", name)
					}
					e = rel.Exprs[i]
					if e == nil {
						return resolved{}, fmt.Errorf("dimension %s is not derivable from the measure's base table", name)
					}
				} else if level == 0 {
					e = &plan.ColRef{Index: idx, Name: col.Name, Typ: col.Typ}
				} else {
					e = &plan.CorrRef{Levels: level, Index: idx, Name: col.Name, Typ: col.Typ}
				}
				hits = append(hits, resolved{expr: e, col: col, levels: level, rel: rel, index: idx})
			}
		}
		switch {
		case len(hits) == 1:
			return hits[0], nil
		case len(hits) > 1:
			// USING columns resolve to the leftmost occurrence.
			if qual == "" && hits[0].rel.Using != nil && hits[0].rel.Using[strings.ToLower(name)] {
				return hits[0], nil
			}
			return resolved{}, fmt.Errorf("column reference %q is ambiguous", name)
		}
	}
	if qual != "" {
		return resolved{}, fmt.Errorf("column %s.%s %w", qual, name, errNotFound)
	}
	return resolved{}, fmt.Errorf("column %s %w", name, errNotFound)
}

// BindQuery binds a full query in a fresh top-level scope and returns its
// plan. The plan's Schema carries measure metadata for any re-exported
// measure columns.
func (b *Binder) BindQuery(q *ast.Query) (plan.Node, error) {
	return b.bindQuery(q, nil)
}

func (b *Binder) bindQuery(q *ast.Query, outer *Scope) (plan.Node, error) {
	// CTEs: visible to the body and to later CTEs; restore the previous
	// map afterward (lexical scoping).
	if len(q.With) > 0 {
		saved := b.ctes
		b.ctes = make(map[string]*cteDef, len(saved)+len(q.With))
		for k, v := range saved {
			b.ctes[k] = v
		}
		defer func() { b.ctes = saved }()
		for _, cte := range q.With {
			node, err := b.bindQuery(cte.Query, outer)
			if err != nil {
				return nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
			}
			b.ctes[strings.ToLower(cte.Name)] = &cteDef{name: cte.Name, node: node, schema: node.Schema()}
		}
	}

	var node plan.Node
	var err error
	switch body := q.Body.(type) {
	case *ast.Select:
		node, err = b.bindSelect(body, q.OrderBy, outer)
		if err != nil {
			return nil, err
		}
	default:
		node, err = b.bindBody(q.Body, outer)
		if err != nil {
			return nil, err
		}
		if len(q.OrderBy) > 0 {
			node, err = b.bindSetOpOrder(node, q.OrderBy)
			if err != nil {
				return nil, err
			}
		}
	}

	if q.Limit != nil || q.Offset != nil {
		count, err := b.bindConstInt(q.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		offset, err := b.bindConstInt(q.Offset, "OFFSET")
		if err != nil {
			return nil, err
		}
		node = &plan.Limit{Input: node, Count: count, Offset: offset}
	}
	return node, nil
}

func (b *Binder) bindBody(body ast.Body, outer *Scope) (plan.Node, error) {
	switch body := body.(type) {
	case *ast.Select:
		return b.bindSelect(body, nil, outer)
	case *ast.SubqueryBody:
		return b.bindQuery(body.Query, outer)
	case *ast.SetOp:
		left, err := b.bindBody(body.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := b.bindBody(body.Right, outer)
		if err != nil {
			return nil, err
		}
		return b.bindSetOp(body, left, right)
	default:
		return nil, fmt.Errorf("unsupported query body %T", body)
	}
}

func (b *Binder) bindSetOp(op *ast.SetOp, left, right plan.Node) (plan.Node, error) {
	ls, rs := left.Schema(), right.Schema()
	if len(ls.Cols) != len(rs.Cols) {
		return nil, fmt.Errorf("%s requires inputs with the same number of columns (%d vs %d)",
			op.Op, len(ls.Cols), len(rs.Cols))
	}
	sch := &plan.Schema{Cols: make([]plan.Col, len(ls.Cols))}
	for i := range ls.Cols {
		if ls.Cols[i].Measure != nil || rs.Cols[i].Measure != nil ||
			ls.Cols[i].Typ.Measure || rs.Cols[i].Typ.Measure {
			return nil, fmt.Errorf("set operations over tables with measure columns are not supported (column %s); evaluate the measure first", ls.Cols[i].Name)
		}
		kind, err := sqltypes.CommonType(ls.Cols[i].Typ.Kind, rs.Cols[i].Typ.Kind)
		if err != nil {
			return nil, fmt.Errorf("%s column %d: %v", op.Op, i+1, err)
		}
		sch.Cols[i] = plan.Col{Name: ls.Cols[i].Name, Typ: sqltypes.Type{Kind: kind}}
	}
	return &plan.SetOp{Op: op.Op, All: op.All, Left: left, Right: right, Sch: sch}, nil
}

// bindSetOpOrder binds ORDER BY over a set operation's output: names and
// ordinals only.
func (b *Binder) bindSetOpOrder(node plan.Node, items []ast.OrderItem) (plan.Node, error) {
	sch := node.Schema()
	sortItems := make([]plan.SortItem, len(items))
	for i, item := range items {
		idx := -1
		switch e := item.Expr.(type) {
		case *ast.NumberLit:
			if !e.IsInt || e.Int < 1 || int(e.Int) > len(sch.Cols) {
				return nil, fmt.Errorf("ORDER BY position %s is out of range", e.Text)
			}
			idx = int(e.Int) - 1
		case *ast.Ident:
			for j, c := range sch.Cols {
				if strings.EqualFold(c.Name, e.Name()) {
					idx = j
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("ORDER BY column %s not found in output", e.Name())
			}
		default:
			return nil, fmt.Errorf("ORDER BY over a set operation supports only output column names and ordinals")
		}
		sortItems[i] = plan.SortItem{
			Expr:       &plan.ColRef{Index: idx, Name: sch.Cols[idx].Name, Typ: sch.Cols[idx].Typ},
			Desc:       item.Desc,
			NullsFirst: nullsFirst(item),
		}
	}
	return &plan.Sort{Input: node, Items: sortItems}, nil
}

func nullsFirst(item ast.OrderItem) bool {
	if item.NullsFirst != nil {
		return *item.NullsFirst
	}
	// SQL default: NULLS LAST when ascending, NULLS FIRST when descending.
	return item.Desc
}

func (b *Binder) bindConstInt(e ast.Expr, what string) (plan.Expr, error) {
	if e == nil {
		return nil, nil
	}
	eb := &exprBinder{b: b, scope: &Scope{}}
	bound, err := eb.bind(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	if bound.Type().Kind != sqltypes.KindInt {
		return nil, fmt.Errorf("%s must be an integer", what)
	}
	return bound, nil
}

// inferName derives an output column name from an AST expression when no
// alias is given.
func inferName(e ast.Expr, i int) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name()
	case *ast.FuncCall:
		if (strings.EqualFold(e.Name, "AGGREGATE") || strings.EqualFold(e.Name, "EVAL")) && len(e.Args) == 1 {
			if id, ok := e.Args[0].(*ast.Ident); ok {
				return id.Name()
			}
		}
		return strings.ToLower(e.Name)
	case *ast.At:
		return inferName(e.X, i)
	case *ast.Cast:
		return inferName(e.X, i)
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}
