package msql_test

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/msql"
)

// TestSequenceColumnIsReadByNameOnly: the sequence column
// (catalog.SequenceColumn, which a sharded table holds on every shard)
// is a system column. `*` and `t.*` skip it, a NATURAL JOIN does not
// join on it, and a statement that names it reads it.
func TestSequenceColumnIsReadByNameOnly(t *testing.T) {
	db := msql.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE t (a INTEGER, __mseq INTEGER, b VARCHAR);
INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y');
CREATE TABLE u (a INTEGER, __mseq INTEGER);
INSERT INTO u VALUES (1, 99), (2, 20);
CREATE VIEW v AS SELECT * FROM t`)
	for _, c := range []struct{ sql, cols, rows string }{
		{`SELECT * FROM t ORDER BY a`, "a b", "1|x 2|y"},
		{`SELECT t.* FROM t ORDER BY a`, "a b", "1|x 2|y"},
		{`SELECT DISTINCT * FROM t ORDER BY a`, "a b", "1|x 2|y"},
		{`SELECT * FROM v ORDER BY a`, "a b", "1|x 2|y"},
		// Joined on a alone: on a and __mseq only the second row would
		// match.
		{`SELECT * FROM t NATURAL JOIN u ORDER BY a`, "a b", "1|x 2|y"},
		{`SELECT t.__mseq, u.__mseq AS useq FROM t NATURAL JOIN u ORDER BY a`, "__mseq useq", "10|99 20|20"},
		{`SELECT __mseq FROM t ORDER BY a`, "__mseq", "10 20"},
		{`SELECT *, __mseq FROM t ORDER BY a`, "a b __mseq", "1|x|10 2|y|20"},
	} {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var rows []string
		for _, r := range rowsAsStrings(res) {
			rows = append(rows, strings.Join(r, "|"))
		}
		if cols, got := strings.Join(res.Columns, " "), strings.Join(rows, " "); cols != c.cols || got != c.rows {
			t.Errorf("%s:\ncolumns %q rows %q\nwant    %q rows %q", c.sql, cols, got, c.cols, c.rows)
		}
	}
	// A view's columns are its select list: it does not pass the
	// system column on.
	if _, err := db.Query(`SELECT __mseq FROM v`); err == nil {
		t.Error("a `*` view passed the sequence column on")
	}
}
