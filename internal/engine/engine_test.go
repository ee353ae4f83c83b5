package engine

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// newSession creates a session preloaded with small test tables.
func newSession(t testing.TB) *Session {
	t.Helper()
	s := New()
	_, err := s.Execute(`
		CREATE TABLE nums (n INTEGER, grp VARCHAR);
		INSERT INTO nums VALUES (1, 'a'), (2, 'a'), (3, 'b'), (4, 'b'), (5, NULL);
		CREATE TABLE pets (name VARCHAR, owner VARCHAR);
		INSERT INTO pets VALUES ('Rex', 'a'), ('Tom', 'b'), ('Jab', 'zz');
	`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rows renders all result rows as pipe-joined strings.
func rows(t testing.TB, s *Session, sql string) []string {
	t.Helper()
	res, err := s.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func expect(t *testing.T, s *Session, sql string, want ...string) {
	t.Helper()
	got := rows(t, s, sql)
	if len(got) != len(want) {
		t.Fatalf("%q: got %d rows %v, want %d %v", sql, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%q row %d: got %q want %q", sql, i, got[i], want[i])
		}
	}
}

func expectErr(t *testing.T, s *Session, sql, needle string) {
	t.Helper()
	_, err := s.Execute(sql)
	if err == nil {
		t.Fatalf("%q: expected error containing %q", sql, needle)
	}
	if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(needle)) {
		t.Errorf("%q: error %q does not mention %q", sql, err, needle)
	}
}

func TestBasicSelect(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT n + 1 AS m FROM nums WHERE n < 3 ORDER BY n`, "2", "3")
	expect(t, s, `SELECT DISTINCT grp FROM nums ORDER BY grp NULLS FIRST`, "NULL", "a", "b")
	expect(t, s, `SELECT n FROM nums ORDER BY n DESC LIMIT 2`, "5", "4")
	expect(t, s, `SELECT n FROM nums ORDER BY n LIMIT 2 OFFSET 2`, "3", "4")
	expect(t, s, `SELECT 1 + 2 AS x`, "3")
	expect(t, s, `SELECT CASE WHEN n > 3 THEN 'big' ELSE 'small' END AS size
	              FROM nums WHERE n IN (1, 5) ORDER BY n`, "small", "big")
}

func TestAggregates(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT grp, SUM(n), COUNT(*), AVG(n) FROM nums
	              WHERE grp IS NOT NULL GROUP BY grp ORDER BY grp`,
		"a|3|2|1.5", "b|7|2|3.5")
	expect(t, s, `SELECT COUNT(*), COUNT(grp), COUNT(DISTINCT grp) FROM nums`, "5|4|2")
	expect(t, s, `SELECT SUM(n) FILTER (WHERE grp = 'a') AS sa FROM nums`, "3")
	expect(t, s, `SELECT grp FROM nums GROUP BY grp HAVING COUNT(*) > 1 ORDER BY grp`, "a", "b")
	// Empty input: global aggregate still returns one row.
	expect(t, s, `SELECT COUNT(*), SUM(n) FROM nums WHERE n > 100`, "0|NULL")
	// GROUP BY ordinal and alias.
	expect(t, s, `SELECT grp AS g, COUNT(*) FROM nums WHERE grp IS NOT NULL GROUP BY 1 ORDER BY g`, "a|2", "b|2")
	expect(t, s, `SELECT grp AS g, COUNT(*) FROM nums WHERE grp IS NOT NULL GROUP BY g ORDER BY g`, "a|2", "b|2")
}

func TestGroupingSets(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT grp, COUNT(*) AS c, GROUPING(grp) AS g FROM nums
	              GROUP BY ROLLUP(grp) ORDER BY g, grp NULLS FIRST`,
		"NULL|1|0", "a|2|0", "b|2|0", "NULL|5|1")
	expect(t, s, `SELECT grp, n, COUNT(*) FROM nums WHERE n <= 2
	              GROUP BY CUBE(grp, n) ORDER BY grp NULLS FIRST, n NULLS FIRST`,
		"NULL|NULL|2", "NULL|1|1", "NULL|2|1", "a|NULL|2", "a|1|1", "a|2|1")
	expect(t, s, `SELECT grp, COUNT(*) FROM nums GROUP BY GROUPING SETS((grp), ()) ORDER BY grp NULLS FIRST, 2`,
		"NULL|1", "NULL|5", "a|2", "b|2")
}

func TestJoins(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT p.name, n.n FROM pets AS p JOIN nums AS n ON p.owner = n.grp
	              ORDER BY p.name, n.n`,
		"Rex|1", "Rex|2", "Tom|3", "Tom|4")
	expect(t, s, `SELECT p.name, n.n FROM pets AS p LEFT JOIN nums AS n ON p.owner = n.grp
	              ORDER BY p.name, n.n NULLS FIRST`,
		"Jab|NULL", "Rex|1", "Rex|2", "Tom|3", "Tom|4")
	expect(t, s, `SELECT p.name, n.n FROM nums AS n RIGHT JOIN pets AS p ON p.owner = n.grp
	              ORDER BY p.name, n.n NULLS FIRST`,
		"Jab|NULL", "Rex|1", "Rex|2", "Tom|3", "Tom|4")
	expect(t, s, `SELECT COUNT(*) FROM pets AS p FULL JOIN nums AS n ON p.owner = n.grp`,
		"6") // 4 matches + Jab + NULL-group row
	expect(t, s, `SELECT COUNT(*) FROM pets, nums`, "15")
	expect(t, s, `SELECT COUNT(*) FROM pets CROSS JOIN nums`, "15")
	// Non-equi join runs on the nested-loop path.
	expect(t, s, `SELECT COUNT(*) FROM nums AS a JOIN nums AS b ON a.n < b.n`, "10")
	// NULL keys never match.
	expect(t, s, `SELECT COUNT(*) FROM nums AS a JOIN nums AS b ON a.grp = b.grp`, "8")
}

func TestUsingAndNatural(t *testing.T) {
	s := New()
	if _, err := s.Execute(`
		CREATE TABLE l (k INTEGER, a VARCHAR);
		CREATE TABLE r (k INTEGER, b VARCHAR);
		INSERT INTO l VALUES (1, 'x'), (2, 'y');
		INSERT INTO r VALUES (1, 'X'), (3, 'Z');
	`); err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT k, a, b FROM l JOIN r USING (k)`, "1|x|X")
	expect(t, s, `SELECT k, a, b FROM l NATURAL JOIN r`, "1|x|X")
	// SELECT * shows the USING column once.
	res, err := s.Query(`SELECT * FROM l JOIN r USING (k)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Errorf("USING star width = %d (%v), want 3", len(res.Columns), res.Columns)
	}
}

func TestSetOps(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT n FROM nums WHERE n <= 2 UNION ALL SELECT n FROM nums WHERE n <= 1 ORDER BY 1`,
		"1", "1", "2")
	expect(t, s, `SELECT n FROM nums WHERE n <= 2 UNION SELECT n FROM nums WHERE n <= 3 ORDER BY 1`,
		"1", "2", "3")
	expect(t, s, `SELECT n FROM nums INTERSECT SELECT n FROM nums WHERE n > 3 ORDER BY 1`,
		"4", "5")
	expect(t, s, `SELECT n FROM nums EXCEPT SELECT n FROM nums WHERE n > 2 ORDER BY 1`,
		"1", "2")
	expect(t, s, `SELECT n FROM nums WHERE n <= 2 UNION ALL SELECT n FROM nums WHERE n <= 2
	              EXCEPT ALL SELECT n FROM nums WHERE n = 1 ORDER BY 1`,
		"1", "2", "2")
}

func TestSubqueries(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT n FROM nums WHERE n = (SELECT MAX(n) FROM nums)`, "5")
	expect(t, s, `SELECT n FROM nums WHERE n IN (SELECT n + 1 FROM nums WHERE n <= 2) ORDER BY n`,
		"2", "3")
	expect(t, s, `SELECT n FROM nums AS o
	              WHERE EXISTS (SELECT 1 FROM pets WHERE owner = o.grp) ORDER BY n`,
		"1", "2", "3", "4")
	expect(t, s, `SELECT n FROM nums AS o
	              WHERE NOT EXISTS (SELECT 1 FROM pets WHERE owner = o.grp) ORDER BY n`,
		"5")
	// Correlated scalar subquery per row.
	expect(t, s, `SELECT n, (SELECT COUNT(*) FROM nums AS i WHERE i.n < o.n) AS below
	              FROM nums AS o WHERE n <= 2 ORDER BY n`,
		"1|0", "2|1")
	// Scalar subquery with two rows errors at runtime.
	_, err := s.Query(`SELECT (SELECT n FROM nums WHERE n <= 2) AS x`)
	if err == nil || !strings.Contains(err.Error(), "scalar subquery") {
		t.Errorf("expected scalar subquery error, got %v", err)
	}
	// NOT IN with NULLs: standard three-valued logic.
	expect(t, s, `SELECT COUNT(*) FROM nums WHERE grp NOT IN (SELECT grp FROM nums WHERE grp IS NOT NULL)`, "0")
}

func TestWindows(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT n, SUM(n) OVER (PARTITION BY grp) AS tot FROM nums WHERE grp IS NOT NULL ORDER BY n`,
		"1|3", "2|3", "3|7", "4|7")
	expect(t, s, `SELECT n, SUM(n) OVER (ORDER BY n) AS run FROM nums ORDER BY n`,
		"1|1", "2|3", "3|6", "4|10", "5|15")
	expect(t, s, `SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC) AS rn FROM nums ORDER BY n LIMIT 2`,
		"1|5", "2|4")
	expect(t, s, `SELECT n, LAG(n) OVER (ORDER BY n) AS prev FROM nums ORDER BY n LIMIT 3`,
		"1|NULL", "2|1", "3|2")
	expect(t, s, `SELECT n, LEAD(n, 2, 0) OVER (ORDER BY n) AS next2 FROM nums ORDER BY n DESC LIMIT 2`,
		"5|0", "4|0")
	expect(t, s, `SELECT n, FIRST_VALUE(n) OVER (PARTITION BY grp ORDER BY n) AS f,
	                     LAST_VALUE(n) OVER (PARTITION BY grp ORDER BY n ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS l
	              FROM nums WHERE grp = 'a' ORDER BY n`,
		"1|1|2", "2|1|2")
	// RANK with ties.
	s2 := New()
	if _, err := s2.Execute(`CREATE TABLE t (v INTEGER); INSERT INTO t VALUES (10), (10), (20)`); err != nil {
		t.Fatal(err)
	}
	expect(t, s2, `SELECT v, RANK() OVER (ORDER BY v) AS r, DENSE_RANK() OVER (ORDER BY v) AS d
	               FROM t ORDER BY v, r`,
		"10|1|1", "10|1|1", "20|3|2")
	// Running aggregates share values across peers (RANGE semantics).
	expect(t, s2, `SELECT v, SUM(v) OVER (ORDER BY v) AS run FROM t ORDER BY v`,
		"10|20", "10|20", "20|40")
}

func TestCTE(t *testing.T) {
	s := newSession(t)
	expect(t, s, `WITH big AS (SELECT n FROM nums WHERE n >= 4)
	              SELECT COUNT(*) FROM big`, "2")
	expect(t, s, `WITH a AS (SELECT 1 AS x), b AS (SELECT x + 1 AS y FROM a)
	              SELECT y FROM b`, "2")
}

func TestInsertSelectAndDrop(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute(`CREATE TABLE copy (n INTEGER, grp VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`INSERT INTO copy SELECT n, grp FROM nums WHERE n <= 2`); err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT COUNT(*) FROM copy`, "2")
	// Column-list insert fills missing columns with NULL.
	if _, err := s.Execute(`INSERT INTO copy (n) VALUES (99)`); err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT grp FROM copy WHERE n = 99`, "NULL")
	if _, err := s.Execute(`DROP TABLE copy`); err != nil {
		t.Fatal(err)
	}
	expectErr(t, s, `SELECT * FROM copy`, "does not exist")
}

func TestViewsAndExplain(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute(`CREATE VIEW evens AS SELECT n FROM nums WHERE n % 2 = 0`); err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT n FROM evens ORDER BY n`, "2", "4")
	// Invalid view definitions fail at CREATE time.
	expectErr(t, s, `CREATE VIEW bad AS SELECT missing FROM nums`, "invalid view definition")
	res, err := s.Execute(`EXPLAIN SELECT grp, COUNT(*) FROM nums GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "Aggregate") || !strings.Contains(res[0].Message, "Scan nums") {
		t.Errorf("explain output:\n%s", res[0].Message)
	}
}

func TestErrorMessages(t *testing.T) {
	s := newSession(t)
	expectErr(t, s, `SELECT missing FROM nums`, "not found")
	expectErr(t, s, `SELECT n FROM nums, pets WHERE name = 1`, "incompatible types")
	expectErr(t, s, `SELECT grp FROM nums GROUP BY n`, "GROUP BY")
	expectErr(t, s, `SELECT SUM(SUM(n)) FROM nums`, "nested")
	expectErr(t, s, `SELECT n FROM nums WHERE SUM(n) > 1`, "not allowed")
	expectErr(t, s, `SELECT UNKNOWN_FUNC(n) FROM nums`, "unknown function")
	expectErr(t, s, `SELECT n FROM nums UNION SELECT n, grp FROM nums`, "same number of columns")
	expectErr(t, s, `CREATE TABLE bad (x NONSENSE)`, "unknown type")
	expectErr(t, s, `INSERT INTO nums (nope) VALUES (1)`, "does not exist")
	expectErr(t, s, `SELECT n FROM nums ORDER BY 9`, "out of range")
	expectErr(t, s, `SELECT nums.n FROM nums AS a`, "not found")
	// Ambiguous column across two relations.
	expectErr(t, s, `SELECT n FROM nums AS a, nums AS b`, "ambiguous")
}

func TestNullSemantics(t *testing.T) {
	s := newSession(t)
	expect(t, s, `SELECT COUNT(*) FROM nums WHERE grp = NULL`, "0")
	expect(t, s, `SELECT COUNT(*) FROM nums WHERE grp IS NULL`, "1")
	expect(t, s, `SELECT COUNT(*) FROM nums WHERE grp IS NOT DISTINCT FROM NULL`, "1")
	expect(t, s, `SELECT COUNT(*) FROM nums WHERE NOT (grp = 'a')`, "2")
	expect(t, s, `SELECT n FROM nums WHERE n BETWEEN 2 AND 3 ORDER BY n`, "2", "3")
	expect(t, s, `SELECT COALESCE(grp, '?') AS g FROM nums WHERE n = 5`, "?")
	// NULL group key forms its own group.
	expect(t, s, `SELECT grp, COUNT(*) FROM nums GROUP BY grp ORDER BY grp NULLS LAST`,
		"a|2", "b|2", "NULL|1")
}

func TestDateHandling(t *testing.T) {
	s := New()
	if _, err := s.Execute(`
		CREATE TABLE d (dt DATE);
		INSERT INTO d VALUES (DATE '2024-02-28'), (DATE '2024-03-01');
	`); err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT dt + 2 FROM d ORDER BY dt LIMIT 1`, "2024-03-01")
	expect(t, s, `SELECT YEAR(dt), MONTH(dt) FROM d ORDER BY dt LIMIT 1`, "2024|2")
	expect(t, s, `SELECT MAX(dt) - MIN(dt) FROM d`, "2")
	expect(t, s, `SELECT COUNT(*) FROM d WHERE dt >= DATE '2024-03-01'`, "1")
	expect(t, s, `SELECT CAST('2024-05-05' AS DATE) AS c`, "2024-05-05")
}

func TestInsertRowsBulk(t *testing.T) {
	s := New()
	if _, err := s.Execute(`CREATE TABLE t (a INTEGER, b VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	err := s.InsertRows("t", [][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.NewInt(2), sqltypes.NewString("y")},
	})
	if err != nil {
		t.Fatal(err)
	}
	expect(t, s, `SELECT COUNT(*) FROM t`, "2")
	if err := s.InsertRows("missing", nil); err == nil {
		t.Error("bulk insert into missing table should fail")
	}
}

func TestQualify(t *testing.T) {
	s := newSession(t)
	// Top value per group, directly via QUALIFY.
	expect(t, s, `
		SELECT grp, n FROM nums
		WHERE grp IS NOT NULL
		QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY n DESC) = 1
		ORDER BY grp`,
		"a|2", "b|4")
	// QUALIFY can combine window values with row values.
	expect(t, s, `
		SELECT n FROM nums
		QUALIFY n > AVG(n) OVER ()
		ORDER BY n`,
		"4", "5")
	expectErr(t, s, `SELECT grp, COUNT(*) FROM nums GROUP BY grp QUALIFY COUNT(*) > 1`, "QUALIFY")
}

func TestExplainAndExpandStatements(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute(`CREATE VIEW MV2 AS
		SELECT *, SUM(n) AS MEASURE total FROM nums`); err != nil {
		t.Fatal(err)
	}
	// EXPAND as a SQL statement returns the rewritten text as a message.
	res, err := s.Execute(`EXPAND SELECT grp, AGGREGATE(total) AS v FROM MV2 GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "SUM(i.n)") {
		t.Errorf("EXPAND statement output:\n%s", res[0].Message)
	}
	// EXPLAIN of a measure query shows the plan (inlined: an Aggregate).
	res, err = s.Execute(`EXPLAIN SELECT grp, AGGREGATE(total) AS v FROM MV2 GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "Aggregate") {
		t.Errorf("EXPLAIN statement output:\n%s", res[0].Message)
	}
}

// TestProjectMergeKeepsLatticeNodes: merging a view's projection into
// the Aggregate above it must not change what the rollup lattice sees —
// its gate already rebases through projections, so node keys, and with
// them the hit ratio, are the same with the rewrite on and off.
func TestProjectMergeKeepsLatticeNodes(t *testing.T) {
	queries := []string{
		`SELECT grp, AGGREGATE(total) AS s, COUNT(*) AS c FROM v GROUP BY grp ORDER BY grp`,
		`SELECT grp, AGGREGATE(total) AS s FROM v WHERE n2 > 2 GROUP BY grp ORDER BY grp`,
		`SELECT grp, total / total AT (ALL grp) AS share FROM v GROUP BY grp ORDER BY grp`,
		`SELECT n2, SUM(n) AS s FROM v GROUP BY n2 ORDER BY n2`,
		`SELECT grp, AGGREGATE(total) AS s FROM v GROUP BY ROLLUP(grp) ORDER BY grp`,
	}
	run := func(pushdown bool) (out [][]string, hits, misses, nodes int64) {
		s := newSession(t)
		if _, err := s.Execute(`CREATE VIEW v AS SELECT *, n * 2 AS n2, SUM(n) AS MEASURE total FROM nums`); err != nil {
			t.Fatal(err)
		}
		s.Update(func(_ *exec.Settings, opt *optimizer.Options) { opt.PushDownFilters = pushdown })
		s.SetRollups(true)
		for pass := 0; pass < 3; pass++ {
			for _, q := range queries {
				out = append(out, rows(t, s, q))
			}
		}
		c := s.RollupStats()
		return out, c.Hits, c.Misses, c.Nodes
	}
	wantRows, wantHits, wantMisses, wantNodes := run(false)
	gotRows, gotHits, gotMisses, gotNodes := run(true)
	if wantHits == 0 {
		t.Fatal("the lattice never answered: the test exercises nothing")
	}
	if gotHits != wantHits || gotMisses != wantMisses || gotNodes != wantNodes {
		t.Errorf("lattice hits/misses/nodes = %d/%d/%d with the merge, %d/%d/%d without",
			gotHits, gotMisses, gotNodes, wantHits, wantMisses, wantNodes)
	}
	for i := range wantRows {
		if strings.Join(gotRows[i], "\n") != strings.Join(wantRows[i], "\n") {
			t.Errorf("statement %d: rows %v with the merge, %v without", i, gotRows[i], wantRows[i])
		}
	}
}
