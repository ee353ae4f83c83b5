package msql_test

import (
	"testing"

	"github.com/measures-sql/msql/msql"
)

// TestBigIntegerKeys: two INTEGERs that round to one float64 (beyond
// 2^53) are two values to everything that keys by value — GROUP BY,
// COUNT(DISTINCT), the IN set, and the result memo of a prepared
// statement, which must not answer one binding with the other's result.
func TestBigIntegerKeys(t *testing.T) {
	db := msql.Open()
	db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER);
		INSERT INTO t VALUES (9007199254740992, 1), (9007199254740993, 2)`)

	one := func(sql string) []string {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return exactRows(res)
	}
	same := func(what string, got []string, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %v, want %v", what, got, want)
			}
		}
	}

	same("GROUP BY a", one(`SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a`),
		"9007199254740992|1", "9007199254740993|2")
	same("COUNT(DISTINCT a)", one(`SELECT COUNT(DISTINCT a) FROM t`), "2")
	same("IN", one(`SELECT b FROM t WHERE a IN (SELECT a FROM t WHERE b = 2) ORDER BY b`), "2")
	same("=", one(`SELECT b FROM t WHERE a = 9007199254740993`), "2")

	stmt, err := db.Prepare(`SELECT SUM(b) FROM t WHERE a = $1`)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		a    int64
		want string
	}{{9007199254740993, "2"}, {9007199254740992, "1"}, {9007199254740993, "2"}} {
		res, err := stmt.Query(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		same("prepared run "+string(rune('1'+i)), exactRows(res), tc.want)
	}
}

// TestAvgIntegerBeyond2p53: AVG over INTEGER sums exactly and rounds
// once, so the order rows were inserted in — the order a scan folds them
// in — does not change the mean once the sum passes 2^53.
func TestAvgIntegerBeyond2p53(t *testing.T) {
	for _, order := range []string{"(9007199254740992), (1), (1)", "(1), (1), (9007199254740992)"} {
		db := msql.Open()
		db.MustExec(`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES ` + order)
		res, err := db.Query(`SELECT AVG(x), SUM(x) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		// 9007199254740994 / 3, correctly rounded: 3.0023997515803315e+15.
		if got, want := exactRows(res), "0x1.5555555555557p+51|9007199254740994"; len(got) != 1 || got[0] != want {
			t.Errorf("rows inserted %s: AVG, SUM = %v, want %s", order, got, want)
		}
	}
}
