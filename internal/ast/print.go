package ast

import (
	"fmt"
	"strings"
)

// FormatStatement renders a statement as SQL text.
func FormatStatement(s Statement) string {
	var p printer
	p.statement(s)
	return p.sb.String()
}

// FormatQuery renders a query as SQL text.
func FormatQuery(q *Query) string {
	var p printer
	p.query(q)
	return p.sb.String()
}

// FormatExpr renders an expression as SQL text.
func FormatExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) ws(s string)           { p.sb.WriteString(s) }
func (p *printer) wf(f string, a ...any) { fmt.Fprintf(&p.sb, f, a...) }

func (p *printer) nl() {
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *printer) statement(s Statement) {
	switch s := s.(type) {
	case *CreateTable:
		p.ws("CREATE ")
		if s.OrReplace {
			p.ws("OR REPLACE ")
		}
		p.wf("TABLE %s (", quoteIdent(s.Name))
		for i, c := range s.Cols {
			if i > 0 {
				p.ws(", ")
			}
			p.wf("%s %s", quoteIdent(c.Name), c.TypeName)
		}
		p.ws(")")
	case *CreateView:
		p.ws("CREATE ")
		if s.OrReplace {
			p.ws("OR REPLACE ")
		}
		p.wf("VIEW %s AS", quoteIdent(s.Name))
		p.nl()
		p.query(s.Query)
	case *Insert:
		p.wf("INSERT INTO %s", quoteIdent(s.Table))
		if len(s.Columns) > 0 {
			p.ws(" (")
			for i, c := range s.Columns {
				if i > 0 {
					p.ws(", ")
				}
				p.ws(quoteIdent(c))
			}
			p.ws(")")
		}
		if s.Query != nil {
			p.nl()
			p.query(s.Query)
		} else {
			p.ws(" VALUES ")
			for i, row := range s.Rows {
				if i > 0 {
					p.ws(", ")
				}
				p.ws("(")
				p.exprList(row)
				p.ws(")")
			}
		}
	case *Drop:
		p.wf("DROP %s %s", s.Kind, quoteIdent(s.Name))
	case *Truncate:
		p.wf("TRUNCATE TABLE %s", quoteIdent(s.Table))
	case *Explain:
		p.ws("EXPLAIN")
		if s.Analyze {
			p.ws(" ANALYZE")
		}
		if s.Execute != nil {
			p.ws(" ")
			p.statement(s.Execute)
			return
		}
		p.nl()
		p.query(s.Query)
	case *Expand:
		p.ws("EXPAND")
		p.nl()
		p.query(s.Query)
	case *QueryStmt:
		p.query(s.Query)
	case *Prepare:
		p.wf("PREPARE %s", quoteIdent(s.Name))
		if len(s.Types) > 0 {
			p.ws(" (")
			for i, t := range s.Types {
				if i > 0 {
					p.ws(", ")
				}
				p.ws(t)
			}
			p.ws(")")
		}
		p.ws(" AS")
		p.nl()
		p.query(s.Query)
	case *ExecuteStmt:
		p.wf("EXECUTE %s", quoteIdent(s.Name))
		if len(s.Args) > 0 {
			p.ws(" (")
			p.exprList(s.Args)
			p.ws(")")
		}
	case *Deallocate:
		if s.All {
			p.ws("DEALLOCATE ALL")
		} else {
			p.wf("DEALLOCATE %s", quoteIdent(s.Name))
		}
	case *Kill:
		p.wf("KILL %d", s.ID)
	default:
		p.wf("/* unknown statement %T */", s)
	}
}

func (p *printer) query(q *Query) {
	if len(q.With) > 0 {
		p.ws("WITH ")
		for i, cte := range q.With {
			if i > 0 {
				p.ws(", ")
			}
			p.wf("%s AS (", quoteIdent(cte.Name))
			p.indent++
			p.nl()
			p.query(cte.Query)
			p.indent--
			p.ws(")")
		}
		p.nl()
	}
	p.body(q.Body)
	if len(q.OrderBy) > 0 {
		p.nl()
		p.ws("ORDER BY ")
		p.orderItems(q.OrderBy)
	}
	if q.Limit != nil {
		p.nl()
		p.ws("LIMIT ")
		p.expr(q.Limit, 0)
	}
	if q.Offset != nil {
		p.nl()
		p.ws("OFFSET ")
		p.expr(q.Offset, 0)
	}
}

func (p *printer) body(b Body) {
	switch b := b.(type) {
	case *Select:
		p.selectBlock(b)
	case *SetOp:
		p.body(b.Left)
		p.nl()
		p.ws(b.Op)
		if b.All {
			p.ws(" ALL")
		}
		p.nl()
		p.body(b.Right)
	case *SubqueryBody:
		p.ws("(")
		p.indent++
		p.nl()
		p.query(b.Query)
		p.indent--
		p.nl()
		p.ws(")")
	}
}

func (p *printer) selectBlock(s *Select) {
	p.ws("SELECT ")
	if s.Distinct {
		p.ws("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			p.ws(", ")
		}
		p.selectItem(item)
	}
	if s.From != nil {
		p.nl()
		p.ws("FROM ")
		p.tableExpr(s.From)
	}
	if s.Where != nil {
		p.nl()
		p.ws("WHERE ")
		p.expr(s.Where, 0)
	}
	if len(s.GroupBy) > 0 {
		p.nl()
		p.ws("GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				p.ws(", ")
			}
			p.groupItem(g)
		}
	}
	if s.Having != nil {
		p.nl()
		p.ws("HAVING ")
		p.expr(s.Having, 0)
	}
	if s.Qualify != nil {
		p.nl()
		p.ws("QUALIFY ")
		p.expr(s.Qualify, 0)
	}
}

func (p *printer) selectItem(item SelectItem) {
	if item.Star {
		if item.StarTable != "" {
			p.wf("%s.*", quoteIdent(item.StarTable))
		} else {
			p.ws("*")
		}
		return
	}
	p.expr(item.Expr, 0)
	if item.Alias != "" {
		if item.Measure {
			p.wf(" AS MEASURE %s", quoteIdent(item.Alias))
		} else {
			p.wf(" AS %s", quoteIdent(item.Alias))
		}
	}
}

func (p *printer) groupItem(g GroupItem) {
	switch g.Kind {
	case GroupExpr:
		p.expr(g.Exprs[0], 0)
	case GroupRollup:
		p.ws("ROLLUP(")
		p.exprList(g.Exprs)
		p.ws(")")
	case GroupCube:
		p.ws("CUBE(")
		p.exprList(g.Exprs)
		p.ws(")")
	case GroupSets:
		p.ws("GROUPING SETS(")
		for i, set := range g.Sets {
			if i > 0 {
				p.ws(", ")
			}
			p.ws("(")
			p.exprList(set)
			p.ws(")")
		}
		p.ws(")")
	}
}

func (p *printer) orderItems(items []OrderItem) {
	for i, o := range items {
		if i > 0 {
			p.ws(", ")
		}
		p.expr(o.Expr, 0)
		if o.Desc {
			p.ws(" DESC")
		}
		if o.NullsFirst != nil {
			if *o.NullsFirst {
				p.ws(" NULLS FIRST")
			} else {
				p.ws(" NULLS LAST")
			}
		}
	}
}

func (p *printer) tableExpr(t TableExpr) {
	switch t := t.(type) {
	case *TableName:
		p.ws(quoteQualified(t.Name))
		if t.Alias != "" {
			p.wf(" AS %s", quoteIdent(t.Alias))
		}
	case *SubqueryTable:
		p.ws("(")
		p.indent++
		p.nl()
		p.query(t.Query)
		p.indent--
		p.ws(")")
		if t.Alias != "" {
			p.wf(" AS %s", quoteIdent(t.Alias))
		}
	case *JoinExpr:
		p.tableExpr(t.Left)
		p.nl()
		if t.Natural {
			p.ws("NATURAL ")
		}
		p.ws(t.Kind.String())
		p.ws(" ")
		p.tableExpr(t.Right)
		if t.On != nil {
			p.ws(" ON ")
			p.expr(t.On, 0)
		}
		if len(t.Using) > 0 {
			p.ws(" USING (")
			for i, c := range t.Using {
				if i > 0 {
					p.ws(", ")
				}
				p.ws(quoteIdent(c))
			}
			p.ws(")")
		}
	}
}

// Operator precedence levels for parenthesization, low to high.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precConcat
	precAdd
	precMul
	precUnary
	precPostfix
)

func binaryPrec(op string) int {
	switch op {
	case "OR":
		return precOr
	case "AND":
		return precAnd
	case "=", "<>", "<", "<=", ">", ">=":
		return precCmp
	case "||":
		return precConcat
	case "+", "-":
		return precAdd
	case "*", "/", "%":
		return precMul
	default:
		return precCmp
	}
}

// expr prints e, parenthesizing if its precedence is below min.
func (p *printer) expr(e Expr, min int) {
	switch e := e.(type) {
	case *Ident:
		for i, part := range e.Parts {
			if i > 0 {
				p.ws(".")
			}
			p.ws(quoteIdent(part))
		}
	case *NumberLit:
		p.ws(e.Text)
	case *StringLit:
		p.ws("'" + strings.ReplaceAll(e.Val, "'", "''") + "'")
	case *BoolLit:
		if e.Val {
			p.ws("TRUE")
		} else {
			p.ws("FALSE")
		}
	case *NullLit:
		p.ws("NULL")
	case *DateLit:
		p.wf("DATE '%s'", e.Val)
	case *Unary:
		p.paren(precUnary < min, func() {
			if e.Op == "NOT" {
				p.ws("NOT ")
				p.expr(e.X, precNot)
			} else {
				p.ws(e.Op)
				p.expr(e.X, precUnary)
			}
		})
	case *Binary:
		prec := binaryPrec(e.Op)
		p.paren(prec < min, func() {
			p.expr(e.L, prec)
			p.wf(" %s ", e.Op)
			p.expr(e.R, prec+1)
		})
	case *IsNull:
		p.paren(precCmp < min, func() {
			p.expr(e.X, precCmp+1)
			if e.Not {
				p.ws(" IS NOT NULL")
			} else {
				p.ws(" IS NULL")
			}
		})
	case *IsDistinct:
		p.paren(precCmp < min, func() {
			p.expr(e.L, precCmp+1)
			if e.Not {
				p.ws(" IS NOT DISTINCT FROM ")
			} else {
				p.ws(" IS DISTINCT FROM ")
			}
			p.expr(e.R, precCmp+1)
		})
	case *Between:
		p.paren(precCmp < min, func() {
			p.expr(e.X, precCmp+1)
			if e.Not {
				p.ws(" NOT")
			}
			p.ws(" BETWEEN ")
			p.expr(e.Lo, precCmp+1)
			p.ws(" AND ")
			p.expr(e.Hi, precCmp+1)
		})
	case *InList:
		p.paren(precCmp < min, func() {
			p.expr(e.X, precCmp+1)
			if e.Not {
				p.ws(" NOT")
			}
			p.ws(" IN (")
			p.exprList(e.List)
			p.ws(")")
		})
	case *InSubquery:
		p.paren(precCmp < min, func() {
			p.expr(e.X, precCmp+1)
			if e.Not {
				p.ws(" NOT")
			}
			p.ws(" IN (")
			p.indent++
			p.nl()
			p.query(e.Query)
			p.indent--
			p.ws(")")
		})
	case *Exists:
		if e.Not {
			p.ws("NOT ")
		}
		p.ws("EXISTS (")
		p.indent++
		p.nl()
		p.query(e.Query)
		p.indent--
		p.ws(")")
	case *ScalarSubquery:
		p.ws("(")
		p.indent++
		p.nl()
		p.query(e.Query)
		p.indent--
		p.ws(")")
	case *Case:
		p.ws("CASE")
		if e.Operand != nil {
			p.ws(" ")
			p.expr(e.Operand, 0)
		}
		for _, w := range e.Whens {
			p.ws(" WHEN ")
			p.expr(w.Cond, 0)
			p.ws(" THEN ")
			p.expr(w.Then, 0)
		}
		if e.Else != nil {
			p.ws(" ELSE ")
			p.expr(e.Else, 0)
		}
		p.ws(" END")
	case *Cast:
		p.ws("CAST(")
		p.expr(e.X, 0)
		p.wf(" AS %s)", e.TypeName)
	case *FuncCall:
		p.funcCall(e)
	case *At:
		p.paren(precPostfix < min, func() {
			p.expr(e.X, precPostfix)
			p.ws(" AT (")
			for i, m := range e.Mods {
				if i > 0 {
					p.ws(" ")
				}
				p.atMod(m)
			}
			p.ws(")")
		})
	case *Current:
		p.ws("CURRENT ")
		p.expr(e.Dim, precPostfix)
	case *Param:
		// Canonical $n form: ? placeholders print with their assigned
		// index, so equivalent texts normalize identically for the plan
		// cache key.
		p.wf("$%d", e.Index)
	default:
		p.wf("/* unknown expr %T */", e)
	}
}

func (p *printer) funcCall(e *FuncCall) {
	p.wf("%s(", strings.ToUpper(e.Name))
	if e.Star {
		p.ws("*")
	} else {
		if e.Distinct {
			p.ws("DISTINCT ")
		}
		p.exprList(e.Args)
	}
	p.ws(")")
	if len(e.WithinDistinct) > 0 {
		p.ws(" WITHIN DISTINCT (")
		p.exprList(e.WithinDistinct)
		p.ws(")")
	}
	if e.Filter != nil {
		p.ws(" FILTER (WHERE ")
		p.expr(e.Filter, 0)
		p.ws(")")
	}
	if e.Over != nil {
		p.ws(" OVER (")
		sep := false
		if len(e.Over.PartitionBy) > 0 {
			p.ws("PARTITION BY ")
			p.exprList(e.Over.PartitionBy)
			sep = true
		}
		if len(e.Over.OrderBy) > 0 {
			if sep {
				p.ws(" ")
			}
			p.ws("ORDER BY ")
			p.orderItems(e.Over.OrderBy)
			sep = true
		}
		if e.Over.Frame != nil {
			if sep {
				p.ws(" ")
			}
			f := e.Over.Frame
			p.wf("%s BETWEEN %s AND %s", f.Unit, frameBound(f.Start), frameBound(f.End))
		}
		p.ws(")")
	}
}

func frameBound(b FrameBound) string {
	switch b.Kind {
	case UnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case OffsetPreceding:
		return FormatExpr(b.Offset) + " PRECEDING"
	case CurrentRow:
		return "CURRENT ROW"
	case OffsetFollowing:
		return FormatExpr(b.Offset) + " FOLLOWING"
	case UnboundedFollowing:
		return "UNBOUNDED FOLLOWING"
	default:
		return "CURRENT ROW"
	}
}

func (p *printer) atMod(m AtMod) {
	switch m := m.(type) {
	case *AtAll:
		p.ws("ALL")
		for i, d := range m.Dims {
			if i > 0 {
				p.ws(",")
			}
			p.ws(" ")
			p.expr(d, 0)
		}
	case *AtSet:
		p.ws("SET ")
		p.expr(m.Dim, 0)
		p.ws(" = ")
		p.expr(m.Value, 0)
	case *AtVisible:
		p.ws("VISIBLE")
	case *AtWhere:
		p.ws("WHERE ")
		p.expr(m.Pred, 0)
	}
}

func (p *printer) exprList(list []Expr) {
	for i, e := range list {
		if i > 0 {
			p.ws(", ")
		}
		p.expr(e, 0)
	}
}

func (p *printer) paren(need bool, f func()) {
	if need {
		p.ws("(")
	}
	f()
	if need {
		p.ws(")")
	}
}

// quoteQualified renders a possibly dot-qualified table name
// ("msql_stats.statements"), quoting each segment independently so the
// output re-parses as the same qualified reference.
func quoteQualified(s string) string {
	if !strings.Contains(s, ".") {
		return quoteIdent(s)
	}
	parts := strings.Split(s, ".")
	for i, p := range parts {
		parts[i] = quoteIdent(p)
	}
	return strings.Join(parts, ".")
}

// quoteIdent double-quotes an identifier if it collides with a keyword or
// contains characters that would not re-lex as an identifier.
func quoteIdent(s string) string {
	if s == "" {
		return s
	}
	if needsQuoting(s) {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func needsQuoting(s string) bool {
	for i, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			continue
		}
		if i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return true
	}
	return isKeywordName(s)
}
