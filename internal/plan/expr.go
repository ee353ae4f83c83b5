// Package plan defines the logical plan: relational operator nodes and a
// typed scalar expression IR. The binder lowers ASTs into this IR; the
// optimizer rewrites it; the executor interprets it.
//
// Measure references never survive into the IR as opaque values: the
// binder (with internal/core) expands every measure use into a correlated
// scalar Subquery over the measure's base relation, exactly as the paper's
// §4.2 prescribes — the Subquery's filter predicate is the reified
// evaluation context, and CorrRef nodes play the role of the paper's
// lambda-captured outer row.
package plan

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// Expr is a typed scalar expression over an operator's input row.
type Expr interface {
	Type() sqltypes.Type
	String() string
}

// ColRef references a column of the current operator's input row.
type ColRef struct {
	Index int
	Name  string
	Typ   sqltypes.Type
}

// Type implements Expr.
func (e *ColRef) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *ColRef) String() string { return fmt.Sprintf("$%d:%s", e.Index, e.Name) }

// CorrRef references a column of an enclosing query's current row.
// Levels counts how many subquery boundaries up the target row lives
// (1 = the immediately enclosing query).
type CorrRef struct {
	Levels int
	Index  int
	Name   string
	Typ    sqltypes.Type
}

// Type implements Expr.
func (e *CorrRef) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *CorrRef) String() string { return fmt.Sprintf("corr^%d$%d:%s", e.Levels, e.Index, e.Name) }

// Lit is a literal value.
type Lit struct {
	Val sqltypes.Value
}

// Type implements Expr.
func (e *Lit) Type() sqltypes.Type { return sqltypes.Type{Kind: e.Val.K} }

// String implements Expr.
func (e *Lit) String() string { return e.Val.SQLLiteral() }

// Param is a prepared-statement parameter, bound at execution time from
// exec.Settings.Params. Index is 0-based (the binder shifts the SQL
// level's 1-based $n). Params are pure: a cached plan containing them is
// reusable across executions, with only the parameter vector changing.
type Param struct {
	Index int
	Typ   sqltypes.Type
}

// Type implements Expr.
func (e *Param) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *Param) String() string { return fmt.Sprintf("param$%d", e.Index+1) }

// Call invokes a scalar function or operator from the function registry
// (arithmetic, comparisons, YEAR, UPPER, LIKE, ...).
type Call struct {
	Name string
	Args []Expr
	Typ  sqltypes.Type
	// Pos locates the call in the statement text for runtime error
	// reporting: source byte offset + 1, so 0 means unknown (synthesized
	// calls from desugaring and measure expansion carry no position).
	Pos int
}

// Type implements Expr.
func (e *Call) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

// And is three-valued, short-circuiting AND.
type And struct{ L, R Expr }

// Type implements Expr.
func (e *And) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *And) String() string { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }

// Or is three-valued, short-circuiting OR.
type Or struct{ L, R Expr }

// Type implements Expr.
func (e *Or) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *Or) String() string { return fmt.Sprintf("(%s OR %s)", e.L, e.R) }

// Not is three-valued NOT.
type Not struct{ X Expr }

// Type implements Expr.
func (e *Not) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *Not) String() string { return fmt.Sprintf("NOT %s", e.X) }

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Neg bool
}

// Type implements Expr.
func (e *IsNull) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *IsNull) String() string {
	if e.Neg {
		return fmt.Sprintf("%s IS NOT NULL", e.X)
	}
	return fmt.Sprintf("%s IS NULL", e.X)
}

// IsDistinct is x IS [NOT] DISTINCT FROM y; never returns NULL. The
// evaluation-context predicates generated for measures use the NOT form
// so NULL dimension values group correctly (paper §3.3 footnote).
type IsDistinct struct {
	L, R Expr
	Neg  bool // true = IS NOT DISTINCT FROM
}

// Type implements Expr.
func (e *IsDistinct) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *IsDistinct) String() string {
	op := "IS DISTINCT FROM"
	if e.Neg {
		op = "IS NOT DISTINCT FROM"
	}
	return fmt.Sprintf("(%s %s %s)", e.L, op, e.R)
}

// InList is x [NOT] IN (e1, ..., en) with SQL NULL semantics.
type InList struct {
	X    Expr
	List []Expr
	Neg  bool
}

// Type implements Expr.
func (e *InList) Type() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

// String implements Expr.
func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	neg := ""
	if e.Neg {
		neg = " NOT"
	}
	return fmt.Sprintf("%s%s IN (%s)", e.X, neg, strings.Join(items, ", "))
}

// CaseWhen is one arm of a searched CASE.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression (simple CASE is desugared by the
// binder).
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means ELSE NULL
	Typ   sqltypes.Type
}

// Type implements Expr.
func (e *Case) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Cast converts to a target kind.
type Cast struct {
	X    Expr
	Kind sqltypes.Kind
}

// Type implements Expr.
func (e *Cast) Type() sqltypes.Type { return sqltypes.Type{Kind: e.Kind} }

// String implements Expr.
func (e *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", e.X, e.Kind) }

// AggRef references the i-th aggregate output of the enclosing Aggregate
// node; only valid in expressions evaluated above an Aggregate.
type AggRef struct {
	Index int
	Typ   sqltypes.Type
}

// Type implements Expr.
func (e *AggRef) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *AggRef) String() string { return fmt.Sprintf("agg$%d", e.Index) }

// SubqueryMode distinguishes the ways a subquery is used as an expression.
type SubqueryMode uint8

const (
	// SubScalar is a scalar subquery: one column, at most one row.
	SubScalar SubqueryMode = iota
	// SubExists is EXISTS (query).
	SubExists
	// SubIn is (x1, ..., xn) IN (query).
	SubIn
)

// Subquery evaluates a nested plan as an expression. When Memo is set the
// executor caches results keyed on the values of the correlated outer
// columns the plan depends on — the "localized self-join" execution
// strategy of paper §5.1 (the executor discovers those dependencies by
// walking the plan).
type Subquery struct {
	Plan  Node
	Mode  SubqueryMode
	Neg   bool   // for [NOT] EXISTS / [NOT] IN
	Exprs []Expr // IN left-hand tuple (evaluated in the outer row)
	Typ   sqltypes.Type
	Memo  bool
	// Label carries a human-readable origin, e.g. "measure profitMargin",
	// used by EXPLAIN.
	Label string
}

// Type implements Expr.
func (e *Subquery) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *Subquery) String() string {
	var mode string
	switch e.Mode {
	case SubScalar:
		mode = "scalar"
	case SubExists:
		mode = "exists"
	case SubIn:
		mode = "in"
	}
	memo := ""
	if e.Memo {
		memo = " memo"
	}
	label := ""
	if e.Label != "" {
		label = " [" + e.Label + "]"
	}
	return fmt.Sprintf("subquery(%s%s)%s", mode, memo, label)
}

// WalkExprs calls f on e and all nested expressions (not descending into
// Subquery plans).
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *Call:
		for _, a := range e.Args {
			WalkExprs(a, f)
		}
	case *And:
		WalkExprs(e.L, f)
		WalkExprs(e.R, f)
	case *Or:
		WalkExprs(e.L, f)
		WalkExprs(e.R, f)
	case *Not:
		WalkExprs(e.X, f)
	case *IsNull:
		WalkExprs(e.X, f)
	case *IsDistinct:
		WalkExprs(e.L, f)
		WalkExprs(e.R, f)
	case *InList:
		WalkExprs(e.X, f)
		for _, x := range e.List {
			WalkExprs(x, f)
		}
	case *Case:
		for _, w := range e.Whens {
			WalkExprs(w.Cond, f)
			WalkExprs(w.Then, f)
		}
		WalkExprs(e.Else, f)
	case *Cast:
		WalkExprs(e.X, f)
	case *Subquery:
		for _, x := range e.Exprs {
			WalkExprs(x, f)
		}
	}
}
