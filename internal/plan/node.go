package plan

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// Col describes one output column of a plan node. A measure column keeps
// its MeasureInfo so that enclosing queries can bind to it; its runtime
// row slot always holds NULL (measures have no per-row value — they are
// context-sensitive expressions, paper §3.4).
type Col struct {
	Name    string
	Typ     sqltypes.Type
	Measure *MeasureInfo
}

// Schema is an ordered list of output columns.
type Schema struct {
	Cols []Col
}

// ColNames returns the column names in order.
func (s *Schema) ColNames() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Dim is one dimension of a measure: a name and its defining expression
// over the measure's base relation.
type Dim struct {
	Name string
	Expr Expr
}

// MeasureInfo is the bound definition of a measure column: everything a
// consuming query needs to evaluate it in an arbitrary evaluation context.
// This realizes the paper's auxiliary function computeM (§4.2): Base and
// Formula fixed at definition time, the row predicate supplied at each
// call site.
type MeasureInfo struct {
	Name string
	// ValueType is the scalar result type (the measure's declared type is
	// ValueType MEASURE).
	ValueType sqltypes.Type
	// Base produces the rows of the defining table, with the defining
	// query's own WHERE clause baked in (it "cannot be subverted").
	Base Node
	// Formula is a scalar expression over Base's row that may contain
	// AggCall nodes, e.g. (SUM(revenue) - SUM(cost)) / SUM(revenue).
	Formula Expr
	// Aggs are the aggregate calls appearing in Formula, in the order
	// AggRef indices reference them.
	Aggs []AggCall
	// Dims are the measure's dimension columns: the non-measure columns
	// of the defining table, as expressions over Base.
	Dims []Dim
}

// DimByName returns the dimension with the given (case-insensitive) name.
func (m *MeasureInfo) DimByName(name string) (Dim, bool) {
	for _, d := range m.Dims {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return Dim{}, false
}

// AggCall is one aggregate invocation inside an Aggregate node (or a
// measure formula, which the expansion turns into an Aggregate node).
type AggCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool
	Filter   Expr // FILTER (WHERE ...), nil if absent
	// WithinDistinct restricts the aggregate to one row per distinct key
	// tuple (Calcite's WITHIN DISTINCT; paper §6.3). Argument values must
	// be consistent within a tuple or execution fails.
	WithinDistinct []Expr
	// KeyIndex is used by GROUPING: the index of the group key it reports
	// on. -1 otherwise.
	KeyIndex int
	// Link marks POSITIONS(col), the fold of a context link by position:
	// each group keeps the positions its rows carry in col, and the
	// call's output names that set for the link's reads (see RowLink).
	// With Sets, col holds the names of sets a POSITIONS call beneath
	// published (a DISTINCT merged rows), and the group's set is their
	// union.
	Link *RowLink
	Sets bool
	Typ  sqltypes.Type
}

// ArgTypes returns the types of the call's arguments, which select its
// aggregate state (fn.Agg.New) and merge rules.
func (a AggCall) ArgTypes() []sqltypes.Type {
	types := make([]sqltypes.Type, len(a.Args))
	for i, e := range a.Args {
		types[i] = e.Type()
	}
	return types
}

// String renders the aggregate call for EXPLAIN.
func (a AggCall) String() string {
	if a.Name == "GROUPING" {
		return fmt.Sprintf("GROUPING(key$%d)", a.KeyIndex)
	}
	var sb strings.Builder
	sb.WriteString(a.Name)
	sb.WriteByte('(')
	if a.Star {
		sb.WriteByte('*')
	} else {
		if a.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, x := range a.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(x.String())
		}
	}
	sb.WriteByte(')')
	if len(a.WithinDistinct) > 0 {
		sb.WriteString(" WITHIN DISTINCT (")
		for i, k := range a.WithinDistinct {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.String())
		}
		sb.WriteString(")")
	}
	if a.Filter != nil {
		fmt.Fprintf(&sb, " FILTER (%s)", a.Filter)
	}
	return sb.String()
}

// RowSource supplies rows for a Scan without the plan package needing to
// know about the catalog; catalog base tables implement it.
type RowSource interface {
	Name() string
	ColNames() []string
	ColTypes() []sqltypes.Type
	Rows() [][]sqltypes.Value
	// DataState is the state of the rows right now; what is computed
	// from Rows is reusable while it stays the Same.
	DataState() storage.State
}

// Node is a logical/physical plan operator.
type Node interface {
	Schema() *Schema
	Children() []Node
	// Explain returns a one-line description (children are printed
	// indented by the EXPLAIN formatter).
	Explain() string
}

// Scan reads all rows from a RowSource.
type Scan struct {
	Source RowSource
	Alias  string
	Sch    *Schema
}

// Schema implements Node.
func (n *Scan) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Scan) Children() []Node { return nil }

// Explain implements Node.
func (n *Scan) Explain() string {
	s := "Scan " + n.Source.Name()
	if n.Alias != "" && n.Alias != n.Source.Name() {
		s += " AS " + n.Alias
	}
	return s
}

// RowLink is a context link by position (paper §3.6): a measure reached
// through a join reads exactly the base rows its group's joined rows
// came from. Its rows are those of the bottom of the measure's base — a
// node of it that the relation's plan reads too — made once per
// execution: the bottom runs once, so a Scan of a stored table, Table,
// takes one snapshot of it, which a read that comes first takes
// instead. The relation carrying the measure reads them through a
// LinkRead with the bottom as Input, which appends each row's position;
// the outer Aggregate folds each group's positions with a POSITIONS
// call; the measure's LinkRead reads the rows at them. A position never
// indexes rows of another generation or of another run of a volatile
// plan. The rows exist only inside an execution; the link itself is an
// identity shared by the plan's nodes.
type RowLink struct {
	Table RowSource
}

// LinkRead reads the rows of a context link (RowLink). With Input, the
// bottom of the measure relation's plan, it is the relation's side: it
// makes the link's rows by running Input and returns each with its
// position appended as a trailing INTEGER column. Otherwise it is the measure's
// side: the rows at the positions of the set Group names, each once, in
// position order. Group is the output of the outer Aggregate's POSITIONS
// call read through a correlated reference or, under the naive
// strategy, a subquery that folds the positions of the query's FROM tree
// run again and filtered to the group.
type LinkRead struct {
	Link  *RowLink
	Input Node
	Group Expr
	Sch   *Schema
}

// Schema implements Node.
func (n *LinkRead) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *LinkRead) Children() []Node {
	if n.Input == nil {
		return nil
	}
	return []Node{n.Input}
}

// Explain implements Node.
func (n *LinkRead) Explain() string {
	if n.Input != nil {
		return "With positions"
	}
	name := "linked rows"
	if n.Link.Table != nil {
		name = n.Link.Table.Name()
	}
	return fmt.Sprintf("Scan %s [context link by position] at %s", name, n.Group)
}

// Values produces a fixed list of rows of constant expressions; with one
// empty row it implements SELECT-without-FROM.
type Values struct {
	Rows [][]Expr
	Sch  *Schema
}

// Schema implements Node.
func (n *Values) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Values) Children() []Node { return nil }

// Explain implements Node.
func (n *Values) Explain() string { return fmt.Sprintf("Values (%d rows)", len(n.Rows)) }

// Filter passes through rows for which Pred is TRUE.
type Filter struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (n *Filter) Schema() *Schema { return n.Input.Schema() }

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Filter) Explain() string { return "Filter " + n.Pred.String() }

// NamedExpr pairs a projection expression with its output column.
type NamedExpr struct {
	Expr Expr
	Col  Col
}

// Project computes a new row from the input row.
type Project struct {
	Input Node
	Exprs []NamedExpr
	Sch   *Schema
}

// Schema implements Node.
func (n *Project) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Project) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Project) Explain() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e.Expr, e.Col.Name)
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinKind enumerates join types.
type JoinKind uint8

const (
	// JoinInner is an inner join.
	JoinInner JoinKind = iota
	// JoinLeft is a left outer join.
	JoinLeft
	// JoinRight is a right outer join.
	JoinRight
	// JoinFull is a full outer join.
	JoinFull
	// JoinCross is a cross join.
	JoinCross
	// JoinSemi passes left rows with at least one match.
	JoinSemi
)

// String returns the SQL spelling.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	case JoinCross:
		return "CROSS"
	case JoinSemi:
		return "SEMI"
	default:
		return "?"
	}
}

// Join combines two inputs. EquiLeft/EquiRight hold the equality key
// pairs extracted from the condition (enabling the hash path); Residual
// holds the rest of the predicate, evaluated over the concatenated row.
// For semi joins the output schema is the left schema.
type Join struct {
	Kind      JoinKind
	Left      Node
	Right     Node
	EquiLeft  []Expr // over left row
	EquiRight []Expr // over right row
	Residual  Expr   // over concatenated row, nil if none
	Sch       *Schema
}

// Schema implements Node.
func (n *Join) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.Left, n.Right} }

// Explain implements Node.
func (n *Join) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s Join", n.Kind)
	for i := range n.EquiLeft {
		if i == 0 {
			sb.WriteString(" on ")
		} else {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "%s = %s", n.EquiLeft[i], n.EquiRight[i])
	}
	if n.Residual != nil {
		fmt.Fprintf(&sb, " residual %s", n.Residual)
	}
	return sb.String()
}

// Aggregate groups Input by GroupExprs and computes Aggs. Sets lists the
// grouping sets as index lists into GroupExprs; a plain GROUP BY has one
// set containing every index, a global aggregate has one empty set, and
// ROLLUP/CUBE/GROUPING SETS produce several. Output columns are the group
// keys (NULL when absent from the row's set) followed by the aggregates.
type Aggregate struct {
	Input      Node
	GroupExprs []Expr
	Sets       [][]int
	Aggs       []AggCall
	Sch        *Schema
}

// Schema implements Node.
func (n *Aggregate) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Aggregate) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Aggregate) Explain() string {
	var sb strings.Builder
	sb.WriteString("Aggregate")
	if len(n.GroupExprs) > 0 {
		sb.WriteString(" by [")
		for i, g := range n.GroupExprs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
		sb.WriteString("]")
	}
	if len(n.Sets) > 1 {
		fmt.Fprintf(&sb, " sets=%v", n.Sets)
	}
	for i, a := range n.Aggs {
		if i == 0 {
			sb.WriteString(" aggs [")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	if len(n.Aggs) > 0 {
		sb.WriteString("]")
	}
	return sb.String()
}

// SortItem is one sort key.
type SortItem struct {
	Expr       Expr
	Desc       bool
	NullsFirst bool
}

// Sort orders rows by Items.
type Sort struct {
	Input Node
	Items []SortItem
}

// Schema implements Node.
func (n *Sort) Schema() *Schema { return n.Input.Schema() }

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Sort) Explain() string {
	parts := make([]string, len(n.Items))
	for i, s := range n.Items {
		dir := "ASC"
		if s.Desc {
			dir = "DESC"
		}
		parts[i] = fmt.Sprintf("%s %s", s.Expr, dir)
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit truncates the input to Count rows after skipping Offset rows;
// either may be nil.
type Limit struct {
	Input  Node
	Count  Expr
	Offset Expr
}

// Schema implements Node.
func (n *Limit) Schema() *Schema { return n.Input.Schema() }

// Children implements Node.
func (n *Limit) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Limit) Explain() string {
	s := "Limit"
	if n.Count != nil {
		s += " " + n.Count.String()
	}
	if n.Offset != nil {
		s += " offset " + n.Offset.String()
	}
	return s
}

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

// Schema implements Node.
func (n *Distinct) Schema() *Schema { return n.Input.Schema() }

// Children implements Node.
func (n *Distinct) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Distinct) Explain() string { return "Distinct" }

// SetOp combines two inputs with UNION / INTERSECT / EXCEPT semantics.
type SetOp struct {
	Op    string // "UNION", "INTERSECT", "EXCEPT"
	All   bool
	Left  Node
	Right Node
	Sch   *Schema
}

// Schema implements Node.
func (n *SetOp) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *SetOp) Children() []Node { return []Node{n.Left, n.Right} }

// Explain implements Node.
func (n *SetOp) Explain() string {
	s := n.Op
	if n.All {
		s += " ALL"
	}
	return s
}

// WindowFunc is one window computation appended to the row by a Window
// node.
type WindowFunc struct {
	Name        string
	Args        []Expr
	Star        bool
	PartitionBy []Expr
	OrderBy     []SortItem
	// FrameRows, when true with OrderBy present, restricts aggregates to
	// the default running frame (UNBOUNDED PRECEDING .. CURRENT ROW);
	// without OrderBy the whole partition is used.
	Running bool
	Typ     sqltypes.Type
}

// Window appends one column per Funcs entry to each input row.
type Window struct {
	Input Node
	Funcs []WindowFunc
	Sch   *Schema
}

// Schema implements Node.
func (n *Window) Schema() *Schema { return n.Sch }

// Children implements Node.
func (n *Window) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *Window) Explain() string {
	parts := make([]string, len(n.Funcs))
	for i, f := range n.Funcs {
		parts[i] = f.Name
	}
	return "Window " + strings.Join(parts, ", ")
}

// ExplainTree renders the plan as an indented tree. Subquery plans held
// by a node's expressions (measure expansions, IN/EXISTS, context links)
// are printed as nested blocks beneath the node.
func ExplainTree(n Node) string {
	var sb strings.Builder
	explainInto(&sb, nil, n, 0, nil)
	return sb.String()
}

// explainInto renders one node and its subtree; in is the subquery whose
// plan n belongs to (nil in the main plan). With a non-nil MetricsSource
// it appends the EXPLAIN ANALYZE annotations; with nil it produces the
// plain EXPLAIN output.
func explainInto(sb *strings.Builder, in *Subquery, n Node, depth int, src MetricsSource) {
	indent := func(d int) {
		for i := 0; i < d; i++ {
			sb.WriteString("  ")
		}
	}
	indent(depth)
	sb.WriteString(n.Explain())
	if src != nil {
		if m := src.NodeMetrics(in, n); m != nil {
			sb.WriteString(annotateNode(m))
		}
	}
	sb.WriteByte('\n')
	visitNodeExprs(n, func(e Expr) {
		WalkExprs(e, func(x Expr) {
			if sq, ok := x.(*Subquery); ok {
				indent(depth + 1)
				label := sq.Label
				if label == "" {
					label = sq.String()
				}
				sb.WriteString("[" + label + "]")
				if src != nil {
					if m := src.SubqueryMetrics(sq); m != nil {
						sb.WriteString(annotateSubquery(m))
					}
				}
				sb.WriteByte('\n')
				explainInto(sb, sq, sq.Plan, depth+2, src)
			}
		})
	})
	for _, c := range n.Children() {
		explainInto(sb, in, c, depth+1, src)
	}
}
