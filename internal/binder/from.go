package binder

import (
	"errors"
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// fromResult carries everything bindSelect needs to know about the FROM
// clause: the plan, the scope frame, and join structure (for the VISIBLE
// modifier and grain-preserving link terms).
type fromResult struct {
	node    plan.Node
	scope   *Scope
	hasJoin bool
}

func (b *Binder) bindFrom(from ast.TableExpr, outer *Scope) (*fromResult, error) {
	if from == nil {
		// SELECT without FROM: a single empty row.
		node := &plan.Values{Rows: [][]plan.Expr{{}}, Sch: &plan.Schema{}}
		return &fromResult{node: node, scope: &Scope{parent: outer}}, nil
	}
	scope := &Scope{parent: outer}
	node, rels, hasJoin, err := b.bindTableExpr(from, scope)
	if err != nil {
		return nil, err
	}
	scope.rels = rels
	return &fromResult{node: node, scope: scope, hasJoin: hasJoin}, nil
}

// bindTableExpr binds a FROM item. scope is the under-construction frame
// (used as the parent context for derived-table subqueries); returned
// rels carry correct offsets relative to the combined row.
func (b *Binder) bindTableExpr(te ast.TableExpr, scope *Scope) (plan.Node, []*Rel, bool, error) {
	switch te := te.(type) {
	case *ast.TableName:
		node, rel, err := b.bindTableName(te, scope)
		if err != nil {
			return nil, nil, false, err
		}
		rel.node = node
		return node, []*Rel{rel}, false, nil

	case *ast.SubqueryTable:
		node, err := b.bindQuery(te.Query, scope.parent)
		if err != nil {
			return nil, nil, false, err
		}
		alias := te.Alias
		rel := &Rel{Alias: alias, Cols: node.Schema().Cols, node: node}
		return node, []*Rel{rel}, false, nil

	case *ast.JoinExpr:
		return b.bindJoin(te, scope)

	default:
		return nil, nil, false, fmt.Errorf("unsupported FROM item %T", te)
	}
}

func (b *Binder) bindTableName(tn *ast.TableName, scope *Scope) (plan.Node, *Rel, error) {
	alias := tn.Alias
	if alias == "" {
		alias = tn.Name
	}
	// CTEs shadow catalog objects.
	if cte, ok := b.ctes[strings.ToLower(tn.Name)]; ok {
		return cte.node, &Rel{Alias: alias, Cols: cte.schema.Cols}, nil
	}
	if v, ok := b.cat.View(tn.Name); ok {
		if b.viewDepth > 32 {
			return nil, nil, fmt.Errorf("view nesting too deep (circular definition?) at %s", tn.Name)
		}
		b.viewDepth++
		node, err := b.bindQuery(v.Query, nil) // views do not see outer scopes
		b.viewDepth--
		if err != nil {
			return nil, nil, fmt.Errorf("in view %s: %w", v.ViewName, err)
		}
		return node, &Rel{Alias: alias, Cols: node.Schema().Cols}, nil
	}
	if t, ok := b.cat.Table(tn.Name); ok {
		names, types := t.ColNames(), t.ColTypes()
		cols := make([]plan.Col, len(names))
		for i := range names {
			cols[i] = plan.Col{Name: names[i], Typ: types[i]}
		}
		sch := &plan.Schema{Cols: cols}
		return &plan.Scan{Source: t, Alias: alias, Sch: sch}, &Rel{Alias: alias, Cols: cols}, nil
	}
	// Virtual system tables (msql_stats.*) resolve last, so they can
	// never shadow a user object. When a qualified reference has no
	// alias, the default alias is the bare table part so that
	// `statements.calls` works in a query over msql_stats.statements.
	if vt, ok := b.cat.Virtual(tn.Name); ok {
		if tn.Alias == "" {
			if i := strings.LastIndex(tn.Name, "."); i >= 0 {
				alias = tn.Name[i+1:]
			}
		}
		names, types := vt.ColNames(), vt.ColTypes()
		cols := make([]plan.Col, len(names))
		for i := range names {
			cols[i] = plan.Col{Name: names[i], Typ: types[i]}
		}
		sch := &plan.Schema{Cols: cols}
		return &plan.Scan{Source: vt, Alias: alias, Sch: sch}, &Rel{Alias: alias, Cols: cols}, nil
	}
	return nil, nil, fmt.Errorf("table or view %s does not exist", tn.Name)
}

func (b *Binder) bindJoin(j *ast.JoinExpr, scope *Scope) (plan.Node, []*Rel, bool, error) {
	leftNode, leftRels, _, err := b.bindTableExpr(j.Left, scope)
	if err != nil {
		return nil, nil, false, err
	}
	rightNode, rightRels, _, err := b.bindTableExpr(j.Right, scope)
	if err != nil {
		return nil, nil, false, err
	}
	leftWidth := len(leftNode.Schema().Cols)
	// Shift right-side rel offsets past the left row.
	for _, r := range rightRels {
		r.Offset += leftWidth
	}
	rels := append(append([]*Rel{}, leftRels...), rightRels...)

	kind := joinKind(j.Kind)
	using := j.Using
	if j.Natural {
		using = naturalColumns(leftRels, rightRels)
		if len(using) == 0 {
			return nil, nil, false, fmt.Errorf("NATURAL JOIN has no common columns")
		}
	}

	join := &plan.Join{Kind: kind, Left: leftNode, Right: rightNode}
	combined := &plan.Schema{
		Cols: append(append([]plan.Col{}, leftNode.Schema().Cols...), rightNode.Schema().Cols...),
	}
	join.Sch = combined

	// Join scope for binding the condition: just the two sides.
	condScope := &Scope{parent: scope.parent, rels: rels}

	switch {
	case len(using) > 0:
		usingSet := map[string]bool{}
		for _, name := range using {
			usingSet[strings.ToLower(name)] = true
			le, err := resolveSide(condScope, leftRels, name)
			if err != nil {
				return nil, nil, false, fmt.Errorf("USING column %s: %v", name, err)
			}
			re, err := resolveSide(condScope, rightRels, name)
			if err != nil {
				return nil, nil, false, fmt.Errorf("USING column %s: %v", name, err)
			}
			// Right-side key must be expressed over the right row.
			join.EquiLeft = append(join.EquiLeft, le)
			join.EquiRight = append(join.EquiRight, shiftLeft(re, leftWidth))
		}
		for _, r := range rels {
			if r.Using == nil {
				r.Using = map[string]bool{}
			}
			for k := range usingSet {
				r.Using[k] = true
			}
		}
	case j.On != nil:
		eb := &exprBinder{b: b, scope: condScope}
		cond, err := eb.bind(j.On)
		if err != nil {
			return nil, nil, false, fmt.Errorf("in JOIN condition: %w", err)
		}
		if err := requireBool(cond, "JOIN condition"); err != nil {
			return nil, nil, false, err
		}
		equiL, equiR, residual := splitEquiConds(cond, leftWidth)
		join.EquiLeft, join.EquiRight, join.Residual = equiL, equiR, residual
	case kind != plan.JoinCross:
		return nil, nil, false, fmt.Errorf("join requires ON or USING")
	}

	return join, rels, true, nil
}

func joinKind(k ast.JoinKind) plan.JoinKind {
	switch k {
	case ast.JoinLeft:
		return plan.JoinLeft
	case ast.JoinRight:
		return plan.JoinRight
	case ast.JoinFull:
		return plan.JoinFull
	case ast.JoinCross:
		return plan.JoinCross
	default:
		return plan.JoinInner
	}
}

// resolveSide resolves name among the given rels only.
func resolveSide(scope *Scope, rels []*Rel, name string) (plan.Expr, error) {
	for _, rel := range rels {
		for i, col := range rel.Cols {
			if strings.EqualFold(col.Name, name) {
				return &plan.ColRef{Index: rel.Offset + i, Name: col.Name, Typ: col.Typ}, nil
			}
		}
	}
	return nil, errors.New("not found on this side of the join")
}

// shiftLeft rebases a full-row ColRef expression to the right input's
// local row (subtracting the left width).
func shiftLeft(e plan.Expr, leftWidth int) plan.Expr {
	return plan.SubstituteCols(e, func(c *plan.ColRef) (plan.Expr, bool) {
		return &plan.ColRef{Index: c.Index - leftWidth, Name: c.Name, Typ: c.Typ}, true
	})
}

// naturalColumns are the non-measure columns both sides name, but for
// the system column (catalog.SequenceColumn).
func naturalColumns(left, right []*Rel) []string {
	var out []string
	seen := map[string]bool{}
	for _, lr := range left {
		for _, lc := range lr.Cols {
			if lc.Measure != nil || strings.EqualFold(lc.Name, catalog.SequenceColumn) {
				continue
			}
			name := strings.ToLower(lc.Name)
			if seen[name] {
				continue
			}
			for _, rr := range right {
				for _, rc := range rr.Cols {
					if strings.EqualFold(rc.Name, lc.Name) && rc.Measure == nil {
						out = append(out, lc.Name)
						seen[name] = true
					}
				}
			}
		}
	}
	return out
}

// splitEquiConds decomposes a join condition into hashable equality pairs
// (left expr = right expr, each referencing only its side) plus a
// residual predicate over the combined row.
func splitEquiConds(cond plan.Expr, leftWidth int) (equiL, equiR []plan.Expr, residual plan.Expr) {
	conjuncts := plan.SplitConj(cond)
	for _, c := range conjuncts {
		call, ok := c.(*plan.Call)
		if ok && call.Name == "=" && len(call.Args) == 2 {
			l, r := call.Args[0], call.Args[1]
			lSide, lOK := sideOf(l, leftWidth)
			rSide, rOK := sideOf(r, leftWidth)
			if lOK && rOK && lSide != rSide {
				if lSide == 1 { // swap so left expr is first
					l, r = r, l
				}
				equiL = append(equiL, l)
				equiR = append(equiR, shiftLeft(r, leftWidth))
				continue
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = &plan.And{L: residual, R: c}
		}
	}
	return equiL, equiR, residual
}

// sideOf reports which side of the join e references: 0 = left, 1 =
// right; ok is false if it references both, neither, or outer rows.
func sideOf(e plan.Expr, leftWidth int) (side int, ok bool) {
	sawLeft, sawRight, bad := false, false, false
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x := x.(type) {
		case *plan.ColRef:
			if x.Index < leftWidth {
				sawLeft = true
			} else {
				sawRight = true
			}
		case *plan.CorrRef, *plan.Subquery:
			bad = true
		}
	})
	if bad || sawLeft == sawRight {
		return 0, false
	}
	if sawRight {
		return 1, true
	}
	return 0, true
}

func requireBool(e plan.Expr, what string) error {
	k := e.Type().Kind
	if k != sqltypes.KindBool && k != sqltypes.KindUnknown {
		return fmt.Errorf("%s must be boolean, got %s", what, e.Type())
	}
	return nil
}
