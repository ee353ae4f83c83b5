// Package ast defines the abstract syntax tree for the SQL dialect,
// including the paper's measure extensions: AS MEASURE select items, the
// AGGREGATE and EVAL functions, the AT context-transformation operator
// with its modifiers (ALL, ALL dims, SET, VISIBLE, WHERE), and the
// CURRENT dimension qualifier.
//
// The package also provides a SQL printer (print.go) able to render any
// tree back to parseable SQL; the measure-expansion rewrite uses it to
// show queries "expanded in place to simple, clear SQL" (paper abstract).
package ast

// Node is implemented by every AST node.
type Node interface {
	node()
}

// Statement is implemented by every top-level statement.
type Statement interface {
	Node
	stmt()
}

// ---------------------------------------------------------------------------
// Statements

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name      string
	OrReplace bool
	Cols      []ColumnDef
}

// ColumnDef is a column definition in CREATE TABLE.
type ColumnDef struct {
	Name     string
	TypeName string
}

// CreateView is CREATE [OR REPLACE] VIEW name AS query.
type CreateView struct {
	Name      string
	OrReplace bool
	Query     *Query
}

// Insert is INSERT INTO name [(cols)] VALUES (...) | query.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr // nil if Query is set
	Query   *Query
}

// Drop is DROP TABLE|VIEW name.
type Drop struct {
	Kind string // "TABLE" or "VIEW"
	Name string
}

// Truncate is TRUNCATE [TABLE] name: delete every row, keep the schema.
type Truncate struct {
	Table string
}

// Explain is EXPLAIN query: prints the logical plan. With Analyze set
// (EXPLAIN ANALYZE) the query is executed and the plan is annotated with
// per-operator runtime metrics. Execute is set instead of Query for
// EXPLAIN [ANALYZE] EXECUTE name (...), which reports whether the plan
// came from the plan cache.
type Explain struct {
	Query   *Query
	Execute *ExecuteStmt
	Analyze bool
}

// Expand is EXPAND query: prints the measure-free expansion of the query
// (the paper's Listing 5 / Listing 11 rewrite).
type Expand struct {
	Query *Query
}

// QueryStmt wraps a query used as a statement. NParams is the highest
// parameter index ($n or ?) the query references, 0 for none.
type QueryStmt struct {
	Query   *Query
	NParams int
}

// Prepare is PREPARE name [(type, ...)] AS query. Types, when present,
// declare the parameter types; otherwise parameter types are inferred
// from the EXECUTE arguments. NParams is the highest parameter index
// referenced by the query ($n and ? placeholders share one numbering).
type Prepare struct {
	Name    string
	Types   []string
	Query   *Query
	NParams int
}

// ExecuteStmt is EXECUTE name [(expr, ...)]. Arguments must be
// constant-evaluable expressions.
type ExecuteStmt struct {
	Name string
	Args []Expr
}

// Deallocate is DEALLOCATE name or DEALLOCATE ALL.
type Deallocate struct {
	Name string
	All  bool
}

// Kill is KILL <query-id>: cancel the in-flight statement with that ID
// in the session's live-query registry (the victim fails with the
// CANCELED taxonomy code).
type Kill struct {
	ID int64
}

func (*CreateTable) node() {}
func (*CreateView) node()  {}
func (*Insert) node()      {}
func (*Drop) node()        {}
func (*Truncate) node()    {}
func (*Explain) node()     {}
func (*Expand) node()      {}
func (*QueryStmt) node()   {}
func (*Prepare) node()     {}
func (*ExecuteStmt) node() {}
func (*Deallocate) node()  {}
func (*Kill) node()        {}

func (*CreateTable) stmt() {}
func (*CreateView) stmt()  {}
func (*Insert) stmt()      {}
func (*Drop) stmt()        {}
func (*Truncate) stmt()    {}
func (*Explain) stmt()     {}
func (*Expand) stmt()      {}
func (*QueryStmt) stmt()   {}
func (*Prepare) stmt()     {}
func (*ExecuteStmt) stmt() {}
func (*Deallocate) stmt()  {}
func (*Kill) stmt()        {}

// ---------------------------------------------------------------------------
// Queries

// Query is a full query expression: optional WITH list, a body (SELECT or
// set operation), and optional ORDER BY / LIMIT / OFFSET.
type Query struct {
	With    []CTE
	Body    Body
	OrderBy []OrderItem
	Limit   Expr
	Offset  Expr
}

// CTE is one WITH entry.
type CTE struct {
	Name  string
	Query *Query
}

// Body is the body of a query: a Select, a set operation, or a
// parenthesized query.
type Body interface {
	Node
	body()
}

// SetOp is UNION [ALL] / INTERSECT / EXCEPT.
type SetOp struct {
	Op    string // "UNION", "INTERSECT", "EXCEPT"
	All   bool
	Left  Body
	Right Body
}

// SubqueryBody wraps a parenthesized query used as a body.
type SubqueryBody struct {
	Query *Query
}

// Select is a SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ... block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil means SELECT without FROM
	Where    Expr
	GroupBy  []GroupItem
	Having   Expr
	// Qualify filters on window function results (a common SQL
	// extension; evaluated after windows are computed).
	Qualify Expr
}

func (*Query) node()        {}
func (*SetOp) node()        {}
func (*Select) node()       {}
func (*SubqueryBody) node() {}
func (*SetOp) body()        {}
func (*Select) body()       {}
func (*SubqueryBody) body() {}

// SelectItem is one projection. Star items are "*" or "t.*". Measure
// items carry the AS MEASURE flag from the paper's syntax.
type SelectItem struct {
	Star      bool
	StarTable string // qualifier for "t.*", empty for plain "*"
	Expr      Expr
	Alias     string
	Measure   bool // AS MEASURE alias
}

// GroupKind classifies a GROUP BY item.
type GroupKind uint8

const (
	// GroupExpr is a simple grouping expression.
	GroupExpr GroupKind = iota
	// GroupRollup is ROLLUP(e1, ..., en).
	GroupRollup
	// GroupCube is CUBE(e1, ..., en).
	GroupCube
	// GroupSets is GROUPING SETS((...), (...)).
	GroupSets
)

// GroupItem is one item in GROUP BY.
type GroupItem struct {
	Kind  GroupKind
	Exprs []Expr   // for GroupExpr (len 1), GroupRollup, GroupCube
	Sets  [][]Expr // for GroupSets
}

// OrderItem is one ORDER BY item.
type OrderItem struct {
	Expr       Expr
	Desc       bool
	NullsFirst *bool // nil = default (NULLS LAST ascending, FIRST descending)
}

// ---------------------------------------------------------------------------
// Table expressions

// TableExpr is implemented by FROM-clause items.
type TableExpr interface {
	Node
	tableExpr()
}

// TableName references a named table or view.
type TableName struct {
	Name  string
	Alias string
}

// SubqueryTable is a derived table.
type SubqueryTable struct {
	Query *Query
	Alias string
}

// JoinKind classifies a join.
type JoinKind uint8

const (
	// JoinInner is INNER JOIN (or bare JOIN).
	JoinInner JoinKind = iota
	// JoinLeft is LEFT [OUTER] JOIN.
	JoinLeft
	// JoinRight is RIGHT [OUTER] JOIN.
	JoinRight
	// JoinFull is FULL [OUTER] JOIN.
	JoinFull
	// JoinCross is CROSS JOIN.
	JoinCross
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinExpr is a join between two table expressions.
type JoinExpr struct {
	Kind    JoinKind
	Natural bool
	Left    TableExpr
	Right   TableExpr
	On      Expr
	Using   []string
}

func (*TableName) node()          {}
func (*SubqueryTable) node()      {}
func (*JoinExpr) node()           {}
func (*TableName) tableExpr()     {}
func (*SubqueryTable) tableExpr() {}
func (*JoinExpr) tableExpr()      {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by every expression node.
type Expr interface {
	Node
	expr()
}

// Ident is a possibly-qualified identifier: a or t.a.
type Ident struct {
	Parts []string
	Pos   int
}

// Name returns the unqualified column name.
func (i *Ident) Name() string { return i.Parts[len(i.Parts)-1] }

// Qualifier returns the table qualifier, or "" if unqualified.
func (i *Ident) Qualifier() string {
	if len(i.Parts) > 1 {
		return i.Parts[0]
	}
	return ""
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Text  string
	IsInt bool
	Int   int64
	Float float64
}

// StringLit is a string literal.
type StringLit struct {
	Val string
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Val bool
}

// NullLit is NULL.
type NullLit struct{}

// DateLit is DATE 'yyyy-mm-dd'.
type DateLit struct {
	Val string
}

// Unary is a prefix operator: - x, NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator: arithmetic, comparison, AND/OR, ||.
type Binary struct {
	Op string
	L  Expr
	R  Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// IsDistinct is x IS [NOT] DISTINCT FROM y.
type IsDistinct struct {
	L   Expr
	R   Expr
	Not bool // true for IS NOT DISTINCT FROM
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X   Expr
	Lo  Expr
	Hi  Expr
	Not bool
}

// InList is x [NOT] IN (e1, ..., en).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// InSubquery is x [NOT] IN (query).
type InSubquery struct {
	X     Expr
	Query *Query
	Not   bool
}

// Exists is [NOT] EXISTS (query).
type Exists struct {
	Query *Query
	Not   bool
}

// ScalarSubquery is a parenthesized query used as a scalar expression.
type ScalarSubquery struct {
	Query *Query
}

// When is one WHEN ... THEN ... arm of a CASE.
type When struct {
	Cond Expr
	Then Expr
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []When
	Else    Expr
}

// Cast is CAST(x AS type).
type Cast struct {
	X        Expr
	TypeName string
}

// FuncCall is a function or aggregate invocation, optionally with
// DISTINCT, FILTER (WHERE ...) and OVER (...). COUNT(*) sets Star.
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
	Filter   Expr
	Over     *WindowSpec
	// WithinDistinct holds the keys of a WITHIN DISTINCT (...) clause on
	// an aggregate (Calcite CALCITE-4483, the paper's §6.3 candidate for
	// grain management): the aggregate sees one row per distinct key
	// tuple, and argument values must be consistent within a tuple.
	WithinDistinct []Expr
	Pos            int
}

// WindowSpec is the OVER (...) clause.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
	Frame       *Frame
}

// Frame is a window frame clause.
type Frame struct {
	Unit  string // "ROWS" or "RANGE"
	Start FrameBound
	End   FrameBound
}

// FrameBoundKind classifies a frame bound.
type FrameBoundKind uint8

const (
	// UnboundedPreceding is UNBOUNDED PRECEDING.
	UnboundedPreceding FrameBoundKind = iota
	// OffsetPreceding is n PRECEDING.
	OffsetPreceding
	// CurrentRow is CURRENT ROW.
	CurrentRow
	// OffsetFollowing is n FOLLOWING.
	OffsetFollowing
	// UnboundedFollowing is UNBOUNDED FOLLOWING.
	UnboundedFollowing
)

// FrameBound is one bound of a window frame.
type FrameBound struct {
	Kind   FrameBoundKind
	Offset Expr
}

// At is the paper's context-transformation operator: cse AT (modifiers).
type At struct {
	X    Expr
	Mods []AtMod
}

// AtMod is implemented by the AT modifiers of Table 3 in the paper.
type AtMod interface {
	Node
	atMod()
}

// AtAll is ALL (clear the whole context) when Dims is empty, or
// ALL dim, ... (remove terms on the named dimensions).
type AtAll struct {
	Dims []Expr
}

// AtSet is SET dim = expr.
type AtSet struct {
	Dim   Expr
	Value Expr
}

// AtVisible is VISIBLE.
type AtVisible struct{}

// AtWhere is WHERE predicate.
type AtWhere struct {
	Pred Expr
}

// Current is the CURRENT dim qualifier, valid inside AT modifiers.
type Current struct {
	Dim Expr
}

// Param is a parameter placeholder in a prepared statement: $n, or a
// bare ? auto-numbered left to right. Index is 1-based.
type Param struct {
	Index int
	Pos   int
}

func (*Ident) node()          {}
func (*NumberLit) node()      {}
func (*StringLit) node()      {}
func (*BoolLit) node()        {}
func (*NullLit) node()        {}
func (*DateLit) node()        {}
func (*Unary) node()          {}
func (*Binary) node()         {}
func (*IsNull) node()         {}
func (*IsDistinct) node()     {}
func (*Between) node()        {}
func (*InList) node()         {}
func (*InSubquery) node()     {}
func (*Exists) node()         {}
func (*ScalarSubquery) node() {}
func (*Case) node()           {}
func (*Cast) node()           {}
func (*FuncCall) node()       {}
func (*At) node()             {}
func (*Param) node()          {}
func (*AtAll) node()          {}
func (*AtSet) node()          {}
func (*AtVisible) node()      {}
func (*AtWhere) node()        {}
func (*Current) node()        {}

func (*Ident) expr()          {}
func (*NumberLit) expr()      {}
func (*StringLit) expr()      {}
func (*BoolLit) expr()        {}
func (*NullLit) expr()        {}
func (*DateLit) expr()        {}
func (*Unary) expr()          {}
func (*Binary) expr()         {}
func (*IsNull) expr()         {}
func (*IsDistinct) expr()     {}
func (*Between) expr()        {}
func (*InList) expr()         {}
func (*InSubquery) expr()     {}
func (*Exists) expr()         {}
func (*ScalarSubquery) expr() {}
func (*Case) expr()           {}
func (*Cast) expr()           {}
func (*FuncCall) expr()       {}
func (*At) expr()             {}
func (*Current) expr()        {}
func (*Param) expr()          {}

func (*AtAll) atMod()     {}
func (*AtSet) atMod()     {}
func (*AtVisible) atMod() {}
func (*AtWhere) atMod()   {}
