// Package parser turns SQL text into the AST of package ast. It is a
// hand-written recursive-descent parser with precedence climbing for
// expressions, covering the SQL subset described in DESIGN.md plus the
// paper's measure extensions: AS MEASURE select items, the AT operator
// and its modifiers, and the CURRENT dimension qualifier.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/lexer"
)

// Parser parses one or more SQL statements.
type Parser struct {
	src string
	lx  lexer.Lexer
	// win is the lookahead window: win[0] is the current token and
	// win[1:n] the tokens scanned after it. The grammar never looks more
	// than two tokens past the current one and never backtracks, so the
	// script is never held as a token slice.
	win [3]lexer.Token
	n   int
	// lexErr is the lexer's error, once the window has reached it; the
	// window then ends in an EOF token standing for the bad one.
	lexErr error
	// paramSeq numbers bare ? placeholders left to right; maxParam is
	// the highest parameter index seen. Both reset per statement.
	paramSeq int
	maxParam int
}

// New creates a parser for src. Tokens are scanned as the parser pulls
// them, so a lexical error is reported where parsing reaches it: after
// any syntax error earlier in the text, before any later one.
func New(src string) *Parser {
	p := &Parser{src: src, lx: *lexer.New(src)}
	p.peek(0)
	return p
}

// ParseStatement parses a single statement from src (a trailing semicolon
// is allowed).
func ParseStatement(src string) (ast.Statement, error) {
	return New(src).parseOnly()
}

// parseOnly parses a statement that must be all of the input but for a
// trailing semicolon.
func (p *Parser) parseOnly() (ast.Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if err := p.end("unexpected input after statement"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseStatements parses a semicolon-separated script.
func ParseStatements(src string) ([]ast.Statement, error) {
	p := New(src)
	var stmts []ast.Statement
	for {
		for p.acceptOp(";") {
		}
		if p.atEOF() {
			if p.lexErr != nil {
				return nil, p.lexErr
			}
			return stmts, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, p.errHere("expected ';' between statements")
		}
	}
}

// ParseQuery parses a single query.
func ParseQuery(src string) (*ast.Query, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	qs, ok := stmt.(*ast.QueryStmt)
	if !ok {
		return nil, fmt.Errorf("expected a query, got %T", stmt)
	}
	return qs.Query, nil
}

// ParseQueryWithParams parses a single query that may contain parameter
// placeholders ($n or ?), additionally returning the number of
// parameters (the highest index referenced).
func ParseQueryWithParams(src string) (*ast.Query, int, error) {
	p := New(src)
	stmt, err := p.parseOnly()
	if err != nil {
		return nil, 0, err
	}
	qs, ok := stmt.(*ast.QueryStmt)
	if !ok {
		return nil, 0, fmt.Errorf("expected a query, got %T", stmt)
	}
	return qs.Query, p.maxParam, nil
}

// ParseExpr parses a single scalar expression.
func ParseExpr(src string) (ast.Expr, error) {
	p := New(src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.end("unexpected input after expression"); err != nil {
		return nil, err
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Token helpers

// peek returns the token i places after the current one (0 ≤ i ≤ 2),
// scanning up to it.
func (p *Parser) peek(i int) lexer.Token {
	for p.n <= i {
		tok := lexer.Token{Kind: lexer.EOF, Pos: len(p.src)}
		if p.lexErr == nil {
			if next, err := p.lx.Next(); err != nil {
				p.lexErr = err
			} else {
				tok = next
			}
		}
		p.win[p.n] = tok
		p.n++
	}
	return p.win[i]
}

func (p *Parser) cur() lexer.Token { return p.win[0] }
func (p *Parser) atEOF() bool      { return p.win[0].Kind == lexer.EOF }
func (p *Parser) advance() lexer.Token {
	t := p.win[0]
	if t.Kind != lexer.EOF {
		p.win[0], p.win[1] = p.win[1], p.win[2]
		p.n--
		p.peek(0)
	}
	return t
}

// end checks that the input ends here, and that it ended without a
// lexical error.
func (p *Parser) end(msg string) error {
	if !p.atEOF() || p.lexErr != nil {
		return p.errHere(msg)
	}
	return nil
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == lexer.Keyword && t.Text == kw
}

func (p *Parser) peekKeyword2(kw string) bool {
	t := p.peek(1)
	return t.Kind == lexer.Keyword && t.Text == kw
}

// peekOpAt reports whether the token i places ahead is the operator op.
func (p *Parser) peekOpAt(i int, op string) bool {
	t := p.peek(i)
	return t.Kind == lexer.Op && t.Text == op
}

func (p *Parser) peekOp(op string) bool {
	t := p.cur()
	return t.Kind == lexer.Op && t.Text == op
}

// peekIdent matches a non-reserved word used as a statement head (like
// EXPLAIN's ANALYZE): it stays usable as an ordinary identifier
// elsewhere.
func (p *Parser) peekIdent(word string) bool {
	t := p.cur()
	return t.Kind == lexer.Ident && strings.EqualFold(t.Text, word)
}

func (p *Parser) accept(kw string) bool {
	if p.peekKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(kw string) error {
	if !p.accept(kw) {
		return p.errHere("expected %s", kw)
	}
	return nil
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errHere("expected '%s'", op)
	}
	return nil
}

// ident accepts an identifier, or a non-reserved keyword usable as a name.
func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == lexer.Ident {
		p.advance()
		return t.Text, nil
	}
	return "", p.errHere("expected identifier")
}

// errHere reports a syntax error at the current token, or the lexer's
// error when the current token is the one the lexer could not scan.
func (p *Parser) errHere(format string, args ...any) error {
	if p.lexErr != nil && p.atEOF() {
		return p.lexErr
	}
	t := p.cur()
	line, col := 1, 1
	for i := 0; i < t.Pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	where := t.Text
	if t.Kind == lexer.EOF {
		where = "end of input"
	}
	return fmt.Errorf("syntax error at line %d column %d near %q: %s",
		line, col, where, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseStatement() (ast.Statement, error) {
	p.paramSeq, p.maxParam = 0, 0
	switch {
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekIdent("TRUNCATE"):
		// TRUNCATE is not a reserved word (it stays usable as a name);
		// the statement form is TRUNCATE [TABLE] <name>.
		p.advance()
		p.accept("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.Truncate{Table: name}, nil
	case p.peekIdent("PREPARE"):
		return p.parsePrepare()
	case p.peekIdent("EXECUTE"):
		return p.parseExecute()
	case p.peekIdent("KILL"):
		// KILL is not a reserved word (it stays usable as a name); the
		// statement form is KILL <integer query id>.
		p.advance()
		t := p.cur()
		if t.Kind != lexer.Number {
			return nil, p.errHere("expected a query id after KILL")
		}
		p.advance()
		id, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad query id %q", t.Text)
		}
		return &ast.Kill{ID: id}, nil
	case p.peekIdent("DEALLOCATE"):
		p.advance()
		if p.accept("ALL") {
			return &ast.Deallocate{All: true}, nil
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.Deallocate{Name: name}, nil
	case p.peekKeyword("EXPLAIN"):
		p.advance()
		// ANALYZE is not a reserved word: match it as an identifier so
		// column names may still use it.
		analyze := false
		if t := p.cur(); t.Kind == lexer.Ident && strings.EqualFold(t.Text, "ANALYZE") {
			p.advance()
			analyze = true
		}
		if p.peekIdent("EXECUTE") {
			ex, err := p.parseExecute()
			if err != nil {
				return nil, err
			}
			return &ast.Explain{Execute: ex.(*ast.ExecuteStmt), Analyze: analyze}, nil
		}
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Query: q, Analyze: analyze}, nil
	case p.peekKeyword("EXPAND"):
		p.advance()
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &ast.Expand{Query: q}, nil
	case p.peekKeyword("SELECT") || p.peekKeyword("WITH") || p.peekOp("("):
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &ast.QueryStmt{Query: q, NParams: p.maxParam}, nil
	default:
		return nil, p.errHere("expected a statement")
	}
}

// parsePrepare parses PREPARE name [(type, ...)] AS query. Only queries
// may be prepared; the optional type list declares parameter types,
// which are otherwise inferred from the EXECUTE arguments.
func (p *Parser) parsePrepare() (ast.Statement, error) {
	p.advance() // PREPARE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var types []string
	if p.acceptOp("(") {
		for {
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			types = append(types, tn)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return &ast.Prepare{Name: name, Types: types, Query: q, NParams: p.maxParam}, nil
}

// parseExecute parses EXECUTE name [(expr, ...)].
func (p *Parser) parseExecute() (ast.Statement, error) {
	p.advance() // EXECUTE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var args []ast.Expr
	if p.acceptOp("(") {
		if !p.peekOp(")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return &ast.ExecuteStmt{Name: name, Args: args}, nil
}

func (p *Parser) parseCreate() (ast.Statement, error) {
	p.advance() // CREATE
	orReplace := false
	if p.accept("OR") {
		if err := p.expect("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	switch {
	case p.accept("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var cols []ast.ColumnDef
		for {
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			typeName, err := p.typeName()
			if err != nil {
				return nil, err
			}
			cols = append(cols, ast.ColumnDef{Name: colName, TypeName: typeName})
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.CreateTable{Name: name, OrReplace: orReplace, Cols: cols}, nil
	case p.accept("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &ast.CreateView{Name: name, OrReplace: orReplace, Query: q}, nil
	default:
		return nil, p.errHere("expected TABLE or VIEW after CREATE")
	}
}

// typeName parses a type, allowing both keywords (DATE) and identifiers
// (VARCHAR, INTEGER), with an optional parenthesized length that is
// accepted and ignored (e.g. VARCHAR(20)).
func (p *Parser) typeName() (string, error) {
	t := p.cur()
	var name string
	switch {
	case t.Kind == lexer.Ident:
		name = strings.ToUpper(t.Text)
		p.advance()
	case t.Kind == lexer.Keyword && t.Text == "DATE":
		name = "DATE"
		p.advance()
	default:
		return "", p.errHere("expected type name")
	}
	if p.acceptOp("(") {
		for !p.peekOp(")") && !p.atEOF() {
			p.advance()
		}
		if err := p.expectOp(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	p.advance() // INSERT
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.accept("VALUES") {
		// Each row is sized as the one before it (as the column list, for
		// the first).
		width := len(ins.Columns)
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			row := make([]ast.Expr, 0, width)
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			width = len(row)
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return ins, nil
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	ins.Query = q
	return ins, nil
}

func (p *Parser) parseDrop() (ast.Statement, error) {
	p.advance() // DROP
	var kind string
	switch {
	case p.accept("TABLE"):
		kind = "TABLE"
	case p.accept("VIEW"):
		kind = "VIEW"
	default:
		return nil, p.errHere("expected TABLE or VIEW after DROP")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &ast.Drop{Kind: kind, Name: name}, nil
}

// ---------------------------------------------------------------------------
// Queries

func (p *Parser) parseQuery() (*ast.Query, error) {
	q := &ast.Query{}
	if p.accept("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			q.With = append(q.With, ast.CTE{Name: name, Query: sub})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	body, err := p.parseSetOps()
	if err != nil {
		return nil, err
	}
	q.Body = body
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		q.OrderBy = items
	}
	if p.accept("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Limit = e
	}
	if p.accept("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Offset = e
	}
	return q, nil
}

// parseSetOps handles UNION/EXCEPT (left-associative, same level) over
// INTERSECT (binds tighter), per the SQL standard.
func (p *Parser) parseSetOps() (ast.Body, error) {
	left, err := p.parseIntersect()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekKeyword("UNION"):
			op = "UNION"
		case p.peekKeyword("EXCEPT"):
			op = "EXCEPT"
		default:
			return left, nil
		}
		p.advance()
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseIntersect()
		if err != nil {
			return nil, err
		}
		left = &ast.SetOp{Op: op, All: all, Left: left, Right: right}
	}
}

func (p *Parser) parseIntersect() (ast.Body, error) {
	left, err := p.parseBodyTerm()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("INTERSECT") {
		p.advance()
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseBodyTerm()
		if err != nil {
			return nil, err
		}
		left = &ast.SetOp{Op: "INTERSECT", All: all, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseBodyTerm() (ast.Body, error) {
	if p.acceptOp("(") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.SubqueryBody{Query: sub}, nil
	}
	return p.parseSelect()
}

func (p *Parser) parseSelect() (*ast.Select, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{}
	if p.accept("DISTINCT") {
		sel.Distinct = true
	} else {
		p.accept("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.accept("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.accept("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseGroupItem()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.accept("QUALIFY") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Qualify = e
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	if p.acceptOp("*") {
		return ast.SelectItem{Star: true}, nil
	}
	// t.* needs two-token lookahead: Ident '.' '*'.
	if p.cur().Kind == lexer.Ident && p.peekOpAt(1, ".") && p.peekOpAt(2, "*") {
		table := p.advance().Text
		p.advance() // .
		p.advance() // *
		return ast.SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.accept("AS") {
		if p.accept("MEASURE") {
			item.Measure = true
		}
		alias, err := p.ident()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().Kind == lexer.Ident {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *Parser) parseGroupItem() (ast.GroupItem, error) {
	switch {
	case p.accept("ROLLUP"):
		exprs, err := p.parenExprList()
		if err != nil {
			return ast.GroupItem{}, err
		}
		return ast.GroupItem{Kind: ast.GroupRollup, Exprs: exprs}, nil
	case p.accept("CUBE"):
		exprs, err := p.parenExprList()
		if err != nil {
			return ast.GroupItem{}, err
		}
		return ast.GroupItem{Kind: ast.GroupCube, Exprs: exprs}, nil
	case p.peekKeyword("GROUPING") && p.peekKeyword2("SETS"):
		p.advance()
		p.advance()
		if err := p.expectOp("("); err != nil {
			return ast.GroupItem{}, err
		}
		var sets [][]ast.Expr
		for {
			set, err := p.parenExprListAllowEmpty()
			if err != nil {
				return ast.GroupItem{}, err
			}
			sets = append(sets, set)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return ast.GroupItem{}, err
		}
		return ast.GroupItem{Kind: ast.GroupSets, Sets: sets}, nil
	default:
		e, err := p.parseExpr()
		if err != nil {
			return ast.GroupItem{}, err
		}
		return ast.GroupItem{Kind: ast.GroupExpr, Exprs: []ast.Expr{e}}, nil
	}
}

func (p *Parser) parenExprList() ([]ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var exprs []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return exprs, nil
}

func (p *Parser) parenExprListAllowEmpty() ([]ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.acceptOp(")") {
		return []ast.Expr{}, nil
	}
	var exprs []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return exprs, nil
}

func (p *Parser) parseOrderItems() ([]ast.OrderItem, error) {
	var items []ast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := ast.OrderItem{Expr: e}
		if p.accept("DESC") {
			item.Desc = true
		} else {
			p.accept("ASC")
		}
		if p.accept("NULLS") {
			switch {
			case p.accept("FIRST"):
				v := true
				item.NullsFirst = &v
			case p.accept("LAST"):
				v := false
				item.NullsFirst = &v
			default:
				return nil, p.errHere("expected FIRST or LAST after NULLS")
			}
		}
		items = append(items, item)
		if !p.acceptOp(",") {
			return items, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Table expressions

func (p *Parser) parseTableExpr() (ast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		natural := false
		if p.peekKeyword("NATURAL") {
			p.advance()
			natural = true
		}
		var kind ast.JoinKind
		switch {
		case p.accept("JOIN"):
			kind = ast.JoinInner
		case p.accept("INNER"):
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinInner
		case p.accept("LEFT"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinLeft
		case p.accept("RIGHT"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinRight
		case p.accept("FULL"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinFull
		case p.accept("CROSS"):
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinCross
		case p.acceptOp(","):
			kind = ast.JoinCross
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &ast.JoinExpr{Kind: kind, Left: left, Right: right}
			continue
		default:
			if natural {
				return nil, p.errHere("expected JOIN after NATURAL")
			}
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &ast.JoinExpr{Kind: kind, Natural: natural, Left: left, Right: right}
		if kind != ast.JoinCross && !natural {
			switch {
			case p.accept("ON"):
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				join.On = e
			case p.accept("USING"):
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					join.Using = append(join.Using, c)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			default:
				return nil, p.errHere("expected ON or USING after JOIN")
			}
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (ast.TableExpr, error) {
	if p.acceptOp("(") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.accept("AS") {
			alias, err = p.ident()
			if err != nil {
				return nil, err
			}
		} else if p.cur().Kind == lexer.Ident {
			alias = p.advance().Text
		}
		return &ast.SubqueryTable{Query: sub, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Dot-qualified reference (schema.table), used by the msql_stats.*
	// system tables; the qualified name is kept as one dotted string.
	for p.peekOp(".") {
		if p.peek(1).Kind != lexer.Ident {
			break
		}
		p.advance() // '.'
		name += "." + p.advance().Text
	}
	alias := ""
	if p.accept("AS") {
		alias, err = p.ident()
		if err != nil {
			return nil, err
		}
	} else if p.cur().Kind == lexer.Ident {
		alias = p.advance().Text
	}
	return &ast.TableName{Name: name, Alias: alias}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.accept("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("=") || p.peekOp("<>") || p.peekOp("<") || p.peekOp("<=") || p.peekOp(">") || p.peekOp(">="):
			op := p.advance().Text
			right, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: op, L: left, R: right}
		case p.peekKeyword("IS"):
			p.advance()
			not := p.accept("NOT")
			switch {
			case p.accept("NULL"):
				left = &ast.IsNull{X: left, Not: not}
			case p.accept("TRUE"):
				left = isBool(left, true, not)
			case p.accept("FALSE"):
				left = isBool(left, false, not)
			case p.accept("DISTINCT"):
				if err := p.expect("FROM"); err != nil {
					return nil, err
				}
				right, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &ast.IsDistinct{L: left, R: right, Not: not}
			default:
				return nil, p.errHere("expected NULL, TRUE, FALSE or DISTINCT FROM after IS")
			}
		case p.peekKeyword("BETWEEN"), p.peekKeyword("IN"), p.peekKeyword("LIKE"):
			left, err = p.parseSuffixPredicate(left, false)
			if err != nil {
				return nil, err
			}
		case p.peekKeyword("NOT") && (p.peekKeyword2("BETWEEN") || p.peekKeyword2("IN") || p.peekKeyword2("LIKE")):
			p.advance() // NOT
			left, err = p.parseSuffixPredicate(left, true)
			if err != nil {
				return nil, err
			}
		default:
			return left, nil
		}
	}
}

func isBool(x ast.Expr, val, not bool) ast.Expr {
	// x IS TRUE is not the same as x = TRUE under NULLs: IS TRUE is never
	// NULL. Encode as IS NOT DISTINCT FROM.
	lit := &ast.BoolLit{Val: val}
	return &ast.IsDistinct{L: x, R: lit, Not: !not}
}

func (p *Parser) parseSuffixPredicate(left ast.Expr, not bool) (ast.Expr, error) {
	switch {
	case p.accept("BETWEEN"):
		lo, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &ast.Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept("LIKE"):
		pat, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: likeOp(not), L: left, R: pat}, nil
	case p.accept("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ast.InSubquery{X: left, Query: q, Not: not}, nil
		}
		var list []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.InList{X: left, List: list, Not: not}, nil
	default:
		return nil, p.errHere("expected BETWEEN, IN or LIKE")
	}
}

func likeOp(not bool) string {
	if not {
		return "NOT LIKE"
	}
	return "LIKE"
}

func (p *Parser) parseConcat() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.peekOp("||") {
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "||", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peekOp("+") || p.peekOp("-") {
		op := p.advance().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekOp("*") || p.peekOp("/") || p.peekOp("%") {
		op := p.advance().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.peekOp("-") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals for cleaner ASTs.
		if n, ok := x.(*ast.NumberLit); ok {
			return negLit(n), nil
		}
		return &ast.Unary{Op: "-", X: x}, nil
	}
	if p.peekOp("+") {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func negLit(n *ast.NumberLit) *ast.NumberLit {
	if n.IsInt {
		return &ast.NumberLit{Text: "-" + n.Text, IsInt: true, Int: -n.Int}
	}
	return &ast.NumberLit{Text: "-" + n.Text, Float: -n.Float}
}

// parsePostfix parses a primary expression followed by any number of AT
// applications. AT binds tighter than every binary operator, so
// "a / b AT (ALL x)" applies AT to b only (paper Listing 6).
func (p *Parser) parsePostfix() (ast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("AT") {
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		mods, err := p.parseAtModifiers()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		x = &ast.At{X: x, Mods: mods}
	}
	return x, nil
}

func (p *Parser) parseAtModifiers() ([]ast.AtMod, error) {
	var mods []ast.AtMod
	for {
		switch {
		case p.accept("ALL"):
			mod := &ast.AtAll{}
			// Bare ALL if the next token closes the list or starts
			// another modifier; otherwise a dimension list follows.
			for !p.peekOp(")") && !p.peekKeyword("SET") && !p.peekKeyword("VISIBLE") &&
				!p.peekKeyword("WHERE") && !p.peekKeyword("ALL") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				mod.Dims = append(mod.Dims, e)
				if !p.acceptOp(",") {
					break
				}
			}
			mods = append(mods, mod)
		case p.accept("SET"):
			dim, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			mods = append(mods, &ast.AtSet{Dim: dim, Value: val})
		case p.accept("VISIBLE"):
			mods = append(mods, &ast.AtVisible{})
		case p.accept("WHERE"):
			pred, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			mods = append(mods, &ast.AtWhere{Pred: pred})
		default:
			if len(mods) == 0 {
				return nil, p.errHere("expected AT modifier (ALL, SET, VISIBLE or WHERE)")
			}
			return mods, nil
		}
	}
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Number:
		p.advance()
		return numberLit(t.Text)
	case lexer.String:
		p.advance()
		return &ast.StringLit{Val: t.Text}, nil
	case lexer.Keyword:
		switch t.Text {
		case "TRUE":
			p.advance()
			return &ast.BoolLit{Val: true}, nil
		case "FALSE":
			p.advance()
			return &ast.BoolLit{Val: false}, nil
		case "NULL":
			p.advance()
			return &ast.NullLit{}, nil
		case "DATE":
			p.advance()
			lit := p.cur()
			if lit.Kind != lexer.String {
				return nil, p.errHere("expected string literal after DATE")
			}
			p.advance()
			return &ast.DateLit{Val: lit.Text}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ast.Exists{Query: q}, nil
		case "CURRENT":
			p.advance()
			dim, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &ast.Current{Dim: dim}, nil
		case "GROUPING":
			p.advance()
			args, err := p.parenExprList()
			if err != nil {
				return nil, err
			}
			return &ast.FuncCall{Name: "GROUPING", Args: args, Pos: t.Pos}, nil
		case "LEFT", "RIGHT", "REPLACE", "FILTER", "FIRST", "LAST":
			// Function names that collide with keywords (e.g. LEFT('ab',1)).
			if p.peekOpAt(1, "(") {
				p.advance()
				return p.parseFuncCall(t.Text, t.Pos)
			}
		}
		return nil, p.errHere("unexpected keyword in expression")
	case lexer.Ident:
		p.advance()
		// EXTRACT(unit FROM expr) desugars to the unit function.
		if strings.EqualFold(t.Text, "EXTRACT") && p.peekOp("(") {
			return p.parseExtract(t.Pos)
		}
		// Function call?
		if p.peekOp("(") {
			return p.parseFuncCall(t.Text, t.Pos)
		}
		// Qualified identifier chain.
		parts := []string{t.Text}
		for p.peekOp(".") {
			p.advance()
			part, err := p.ident()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		return &ast.Ident{Parts: parts, Pos: t.Pos}, nil
	case lexer.Op:
		if t.Text == "?" {
			p.advance()
			p.paramSeq++
			if p.paramSeq > p.maxParam {
				p.maxParam = p.paramSeq
			}
			return &ast.Param{Index: p.paramSeq, Pos: t.Pos}, nil
		}
		if strings.HasPrefix(t.Text, "$") {
			p.advance()
			n, err := strconv.Atoi(t.Text[1:])
			if err != nil || n <= 0 {
				return nil, p.errHere("invalid parameter reference %s", t.Text)
			}
			if n > p.maxParam {
				p.maxParam = n
			}
			return &ast.Param{Index: n, Pos: t.Pos}, nil
		}
		if t.Text == "(" {
			p.advance()
			if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
				q, err := p.parseQuery()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &ast.ScalarSubquery{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("expected an expression")
}

func numberLit(text string) (ast.Expr, error) {
	if !strings.ContainsAny(text, ".eE") {
		i, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			return &ast.NumberLit{Text: text, IsInt: true, Int: i}, nil
		}
		// Fall through to float for out-of-range integers.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("invalid numeric literal %q", text)
	}
	return &ast.NumberLit{Text: text, Float: f}, nil
}

func (p *Parser) parseFuncCall(name string, pos int) (ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	call := &ast.FuncCall{Name: strings.ToUpper(name), Pos: pos}
	switch {
	case p.acceptOp("*"):
		call.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	case p.acceptOp(")"):
		// zero-argument call
	default:
		if p.accept("DISTINCT") {
			call.Distinct = true
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.peekKeyword("WITHIN") {
		p.advance()
		if err := p.expect("DISTINCT"); err != nil {
			return nil, err
		}
		keys, err := p.parenExprList()
		if err != nil {
			return nil, err
		}
		call.WithinDistinct = keys
	}
	if p.peekKeyword("FILTER") {
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if err := p.expect("WHERE"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		call.Filter = e
	}
	if p.peekKeyword("OVER") {
		p.advance()
		spec, err := p.parseWindowSpec()
		if err != nil {
			return nil, err
		}
		call.Over = spec
	}
	return call, nil
}

func (p *Parser) parseWindowSpec() (*ast.WindowSpec, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	spec := &ast.WindowSpec{}
	if p.accept("PARTITION") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			spec.PartitionBy = append(spec.PartitionBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		spec.OrderBy = items
	}
	if p.peekKeyword("ROWS") || p.peekKeyword("RANGE") {
		unit := p.advance().Text
		frame := &ast.Frame{Unit: unit}
		if p.accept("BETWEEN") {
			start, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AND"); err != nil {
				return nil, err
			}
			end, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			frame.Start, frame.End = start, end
		} else {
			start, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			frame.Start = start
			frame.End = ast.FrameBound{Kind: ast.CurrentRow}
		}
		spec.Frame = frame
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return spec, nil
}

func (p *Parser) parseFrameBound() (ast.FrameBound, error) {
	switch {
	case p.accept("UNBOUNDED"):
		switch {
		case p.accept("PRECEDING"):
			return ast.FrameBound{Kind: ast.UnboundedPreceding}, nil
		case p.accept("FOLLOWING"):
			return ast.FrameBound{Kind: ast.UnboundedFollowing}, nil
		default:
			return ast.FrameBound{}, p.errHere("expected PRECEDING or FOLLOWING")
		}
	case p.accept("CURRENT"):
		if err := p.expect("ROW"); err != nil {
			return ast.FrameBound{}, err
		}
		return ast.FrameBound{Kind: ast.CurrentRow}, nil
	default:
		e, err := p.parseExpr()
		if err != nil {
			return ast.FrameBound{}, err
		}
		switch {
		case p.accept("PRECEDING"):
			return ast.FrameBound{Kind: ast.OffsetPreceding, Offset: e}, nil
		case p.accept("FOLLOWING"):
			return ast.FrameBound{Kind: ast.OffsetFollowing, Offset: e}, nil
		default:
			return ast.FrameBound{}, p.errHere("expected PRECEDING or FOLLOWING")
		}
	}
}

func (p *Parser) parseCase() (ast.Expr, error) {
	p.advance() // CASE
	c := &ast.Case{}
	if !p.peekKeyword("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN arm")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	p.advance() // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	typeName, err := p.typeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &ast.Cast{X: x, TypeName: typeName}, nil
}

// parseExtract handles EXTRACT(unit FROM expr), desugaring to the
// corresponding date-part function (YEAR, MONTH, DAY, QUARTER).
func (p *Parser) parseExtract(pos int) (ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	unit, err := p.ident()
	if err != nil {
		return nil, p.errHere("expected a date part (YEAR, MONTH, DAY, QUARTER) in EXTRACT")
	}
	switch strings.ToUpper(unit) {
	case "YEAR", "MONTH", "DAY", "QUARTER", "DAYOFWEEK":
	default:
		return nil, fmt.Errorf("EXTRACT does not support unit %s", unit)
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &ast.FuncCall{Name: strings.ToUpper(unit), Args: []ast.Expr{arg}, Pos: pos}, nil
}
