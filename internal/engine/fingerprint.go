// Statement fingerprinting for the statement-stats store: statements of
// one shape share one fingerprint, in the pg_stat_statements tradition.
// The fingerprint is the statement's lifted text (ast.Lift, DESIGN.md
// §4.1): the number, string, BOOLEAN and DATE literals of its top-level
// WHERE become $n parameters numbered after its own, so
// `WHERE revenue > 10`, `WHERE revenue > 99` and the prepared
// `WHERE revenue > $1` aggregate into one statistics row. Literals
// elsewhere (the select list, LIMIT, subqueries) stay in the text.
package engine

import (
	"strings"

	"github.com/measures-sql/msql/internal/ast"
)

// stmtInfo is what the guard rail needs to know about the statement it
// wraps: a one-line display text (for the live-query registry and the
// slow-query log) and the stats-store fingerprint (empty = untracked).
type stmtInfo struct {
	sql         string
	fingerprint string
}

// oneLine collapses the printer's multi-line rendering into a single
// display line.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// statementInfo derives the display text and fingerprint for one parsed
// statement. When the stats store is disabled, fingerprinting (which
// copies the WHERE clause and prints the query a second time) is skipped
// entirely — that is the overhead msqlbench's E27 measures.
func (s *Session) statementInfo(stmt ast.Statement) stmtInfo {
	track := s.stmts.enabledNow()
	switch st := stmt.(type) {
	case *ast.QueryStmt:
		info := stmtInfo{sql: oneLine(ast.FormatQuery(st.Query))}
		if track {
			info.fingerprint = fingerprintQuery(st.Query, st.NParams)
		}
		return info
	case *ast.ExecuteStmt:
		// Retargeted to the underlying prepared query's fingerprint in
		// execPrepared, so EXECUTE and direct SQL aggregate together.
		return stmtInfo{sql: oneLine(ast.FormatStatement(st))}
	case *ast.Insert:
		// INSERT values are high-cardinality; fingerprint by target table.
		info := stmtInfo{sql: "INSERT INTO " + st.Table}
		if track {
			info.fingerprint = info.sql
		}
		return info
	case *ast.Explain, *ast.Expand:
		// Diagnostic statements stay out of the stats store.
		return stmtInfo{sql: oneLine(ast.FormatStatement(st))}
	case *ast.Kill:
		return stmtInfo{sql: oneLine(ast.FormatStatement(st))}
	default:
		// DDL and the prepared-statement verbs: low cardinality, the
		// formatted text is its own fingerprint.
		info := stmtInfo{sql: oneLine(ast.FormatStatement(stmt))}
		if track {
			info.fingerprint = info.sql
		}
		return info
	}
}

// fingerprintQuery is the fingerprint of q, whose own placeholders run
// to $n: its shape (ast.Lift) on one line.
func fingerprintQuery(q *ast.Query, n int) string {
	lifted, _ := ast.Lift(q, n)
	return oneLine(ast.FormatQuery(lifted))
}
