package msql_test

// Differential-testing harness for the vectorized execution engine
// (experiment E25's correctness side). Every generated query runs
// through the row engine and the vectorized engine, under each planning
// strategy and at 1 and 4 workers, and must return row-for-row
// identical results. The row engine is the oracle: it is the
// implementation every paper listing is tested against.
//
// The corpus size defaults to 80 queries per strategy and scales with
// MSQL_DIFF_QUERIES (the nightly CI run uses 500). On failure the
// harness prints the generator seed and the SQL, which reproduce the
// query deterministically.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/qgen"
	"github.com/measures-sql/msql/msql"
)

// liftArgs converts the SQL literal texts recorded by a lifting
// generator into Go argument values for prepared execution: quoted
// strings, floats (the generator only emits them with a '.'), ints.
func liftArgs(t *testing.T, lits []string) []any {
	t.Helper()
	args := make([]any, len(lits))
	for i, l := range lits {
		switch {
		case strings.HasPrefix(l, "'"):
			args[i] = strings.Trim(l, "'")
		case strings.Contains(l, "."):
			f, err := strconv.ParseFloat(l, 64)
			if err != nil {
				t.Fatalf("lifted literal %q: %v", l, err)
			}
			args[i] = f
		default:
			n, err := strconv.ParseInt(l, 10, 64)
			if err != nil {
				t.Fatalf("lifted literal %q: %v", l, err)
			}
			args[i] = n
		}
	}
	return args
}

func diffCorpusSize(t testing.TB) int {
	if s := os.Getenv("MSQL_DIFF_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad MSQL_DIFF_QUERIES=%q", s)
		}
		return n
	}
	return 80
}

// variant is one execution configuration compared against the row
// oracle.
type variant struct {
	name string
	opts []msql.Option
}

func diffVariants() []variant {
	return []variant{
		{"vec-w1", []msql.Option{msql.WithVectorized(true), msql.WithWorkers(1)}},
		{"vec-w4", []msql.Option{msql.WithVectorized(true), msql.WithWorkers(4)}},
		{"row-w4", []msql.Option{msql.WithVectorized(false), msql.WithWorkers(4)}},
	}
}

func flattenRows(res *msql.Result) []string {
	rows := rowsAsStrings(res)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	return out
}

// TestDifferentialRowVsVectorized is the harness. The oracle run is the
// row engine at Workers=1 under the strategy being tested; each variant
// must agree with it exactly (values after the shared 2-decimal float
// rendering), including on whether the query errors at all.
func TestDifferentialRowVsVectorized(t *testing.T) {
	const seed = 20240805
	corpus := diffCorpusSize(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		strategy := strategy
		t.Run(strategy.name, func(t *testing.T) {
			db := buildRandomDB(t, 99, strategy.s)
			db.SetWorkers(1)
			gen := qgen.New(seed, qgen.DefaultCatalog())
			ctx := context.Background()
			vecBatchesBefore := db.Metrics().VecBatches
			for i := 0; i < corpus; i++ {
				q := gen.Query()
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("query %d (seed %d)\nSQL: %s\n%s", i, seed, q, fmt.Sprintf(format, args...))
				}
				oracle, oracleErr := db.Query(q)
				for _, v := range diffVariants() {
					got, err := db.QueryContext(ctx, q, v.opts...)
					// Error agreement is presence, not message: the
					// vectorized engine may surface an equivalent error
					// from a different row of the batch.
					if (err == nil) != (oracleErr == nil) {
						fail("%s disagrees on error: oracle=%v variant=%v", v.name, oracleErr, err)
					}
					if oracleErr != nil {
						continue
					}
					want, have := flattenRows(oracle), flattenRows(got)
					if len(want) != len(have) {
						fail("%s row count: oracle=%d variant=%d", v.name, len(want), len(have))
					}
					for r := range want {
						if want[r] != have[r] {
							fail("%s row %d differs:\noracle:  %s\nvariant: %s", v.name, r, want[r], have[r])
						}
					}
				}
			}
			// The harness is only meaningful if the vectorized path
			// actually ran: batches must have been recorded.
			if db.Metrics().VecBatches == vecBatchesBefore {
				t.Fatal("no vectorized batches recorded across the corpus")
			}
		})
	}
}

// TestDifferentialPreparedVsDirect replays the generated corpus through
// PREPARE/EXECUTE: a lifting generator in lockstep with the plain one
// turns every literal into a $n parameter, the direct run of the plain
// query is the oracle, and the prepared run must agree bit for bit —
// including on whether the query errors. Each variant executes twice,
// so the second run exercises the cached compiled pipeline; both runs
// must match, and across the corpus the plan cache must record hits.
func TestDifferentialPreparedVsDirect(t *testing.T) {
	const seed = 20240805
	corpus := diffCorpusSize(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		strategy := strategy
		t.Run(strategy.name, func(t *testing.T) {
			db := buildRandomDB(t, 99, strategy.s)
			db.SetWorkers(1)
			plain := qgen.New(seed, qgen.DefaultCatalog())
			lifted := qgen.New(seed, qgen.DefaultCatalog())
			lifted.SetLift(true)
			ctx := context.Background()
			hitsBefore := db.PlanCacheStats().Hits
			for i := 0; i < corpus; i++ {
				q := plain.Query()
				lq := lifted.Query()
				args := liftArgs(t, lifted.TakeParams())
				fail := func(format string, a ...any) {
					t.Helper()
					t.Fatalf("query %d (seed %d)\nSQL:    %s\nlifted: %s\nargs:   %v\n%s",
						i, seed, q, lq, args, fmt.Sprintf(format, a...))
				}
				oracle, oracleErr := db.Query(q)
				stmt, prepErr := db.Prepare(lq)
				if prepErr != nil {
					if oracleErr == nil {
						fail("prepare failed but direct query succeeded: %v", prepErr)
					}
					continue
				}
				for _, v := range diffVariants() {
					var prev []string
					for run := 0; run < 2; run++ {
						got, err := stmt.QueryContext(ctx, args, v.opts...)
						if (err == nil) != (oracleErr == nil) {
							fail("%s run %d disagrees on error: oracle=%v prepared=%v", v.name, run, oracleErr, err)
						}
						if oracleErr != nil {
							continue
						}
						want, have := flattenRows(oracle), flattenRows(got)
						if len(want) != len(have) {
							fail("%s run %d row count: oracle=%d prepared=%d", v.name, run, len(want), len(have))
						}
						for r := range want {
							if want[r] != have[r] {
								fail("%s run %d row %d differs:\noracle:   %s\nprepared: %s", v.name, run, r, want[r], have[r])
							}
						}
						if run == 1 {
							for r := range prev {
								if prev[r] != have[r] {
									fail("%s cold/warm runs differ at row %d:\ncold: %s\nwarm: %s", v.name, r, prev[r], have[r])
								}
							}
						}
						prev = have
					}
				}
			}
			if hits := db.PlanCacheStats().Hits; hits <= hitsBefore {
				t.Fatalf("no plan-cache hits across the prepared corpus (before=%d after=%d)", hitsBefore, hits)
			}
		})
	}
}

// TestDifferentialPartitionedVsPerContext is the gate of the
// hash-partitioned evaluation of equality-correlated contexts (paper
// §5.1): the memo strategy answers every distinct context after the
// first from one partitioned pass, the naive strategy still re-runs the
// context subquery per outer row and never partitions. The naive row
// engine at one worker is therefore the per-context oracle; every
// strategy × {1, 4} workers × {row, vectorized} must agree with it on
// whether the query errors and on every value, floats compared by bit
// pattern (a bucket holds exactly the rows the context's filter passes,
// in scan order, so float accumulation order is unchanged).
func TestDifferentialPartitionedVsPerContext(t *testing.T) {
	t.Run("folds", testFoldedContextsVsPerContext)
	const seed = 20240805
	corpus := diffCorpusSize(t)
	oracleDB := buildRandomDB(t, 99, msql.StrategyNaive)
	oracleDB.SetWorkers(1)
	type config struct {
		name string
		db   *msql.DB
	}
	var configs []config
	for _, s := range []struct {
		name string
		s    msql.Strategy
	}{{"inline", msql.StrategyDefault}, {"memo", msql.StrategyMemo}, {"naive", msql.StrategyNaive}} {
		configs = append(configs, config{s.name, buildRandomDB(t, 99, s.s)})
	}
	memoDB := configs[1].db
	memoDB.SetWorkers(1)

	gen := qgen.New(seed, qgen.DefaultCatalog())
	ctx := context.Background()
	partitioned := 0
	for i := 0; i < corpus; i++ {
		q := gen.Query()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("query %d (seed %d)\nSQL: %s\n%s", i, seed, q, fmt.Sprintf(format, args...))
		}
		oracle, oracleErr := oracleDB.Query(q)
		var want []string
		if oracleErr == nil {
			want = exactRows(oracle)
		}
		for _, c := range configs {
			for _, workers := range []int{1, 4} {
				for _, vectorized := range []bool{false, true} {
					name := fmt.Sprintf("%s/w%d/vec=%v", c.name, workers, vectorized)
					got, err := c.db.QueryContext(ctx, q, msql.WithWorkers(workers), msql.WithVectorized(vectorized))
					if (err == nil) != (oracleErr == nil) {
						fail("%s disagrees on error: oracle=%v variant=%v", name, oracleErr, err)
					}
					if oracleErr != nil {
						continue
					}
					have := exactRows(got)
					if len(want) != len(have) {
						fail("%s row count: oracle=%d variant=%d", name, len(want), len(have))
					}
					for r := range want {
						if want[r] != have[r] {
							fail("%s row %d differs:\noracle:  %s\nvariant: %s", name, r, want[r], have[r])
						}
					}
				}
			}
		}
		if oracleErr == nil {
			if txt, err := memoDB.ExplainAnalyze(q); err == nil && strings.Contains(txt, "partitioned=") {
				partitioned++
			}
		}
	}
	// The gate is only meaningful if the corpus reaches the partitioned
	// path under the memo strategy.
	if partitioned == 0 {
		t.Fatal("no query of the corpus was evaluated through a partition")
	}
	t.Logf("%d of %d corpus queries built a partition under the memo strategy", partitioned, corpus)
}

// foldSetupSQL is the fixture of the folding-partition cases: F is the
// measure's base (k has NULLs and a bucket, 4, no context reads, whose
// INTEGER sum overflows; x carries long mantissas, so accumulation order
// shows in the low bits), C holds the contexts (NULL, and 9, which no row
// of F has), P is joined to F and has NULL ages, so the rows a context
// link reads contain NULL.
const foldSetupSQL = `
CREATE TABLE F (k INTEGER, g VARCHAR, x DOUBLE, big INTEGER);
INSERT INTO F VALUES
  (0, 'a', 0.1, 1), (1, 'b', 1.0000000000000002, 2), (2, 'c', 0.30000000000000004, 3),
  (0, 'b', 1e16, 4), (1, NULL, 3.3333333333333335, 5), (NULL, 'a', 2.718281828459045, 6),
  (0, 'c', -1e16, 7), (2, 'a', 0.7, 8), (NULL, NULL, 1.4142135623730951, 9),
  (4, 'b', 5.5, 9223372036854775000), (4, 'c', 6.5, 9223372036854775000),
  (3, 'a', NULL, NULL), (1, 'c', 0.2, 10), (0, 'a', 0.3, 11);
CREATE TABLE C (k INTEGER);
INSERT INTO C VALUES (0), (1), (2), (3), (NULL), (9), (1), (NULL);
CREATE TABLE P (name VARCHAR, age INTEGER);
INSERT INTO P VALUES ('a', 30), ('b', NULL), ('c', 41);
CREATE VIEW FV AS SELECT *, SUM(x) AS MEASURE sx, AVG(x) AS MEASURE ax, COUNT(*) AS MEASURE n FROM F;
`

// testFoldedContextsVsPerContext runs the shapes a partition folds into
// states or IN sets — float SUM and AVG, NULL keys under = and IS NOT
// DISTINCT FROM, empty buckets, a bucket whose fold overflows — and
// joined measures whose linked rows hold NULL — under the memo and default
// strategies at 1 and 4 workers with the lattice off and on, against the
// naive strategy at one worker without it, on every value bit for bit.
func testFoldedContextsVsPerContext(t *testing.T) {
	cases := []struct {
		name, sql string
		// partitioned: EXPLAIN ANALYZE under the memo strategy reports a
		// partition (a failed build reports none).
		partitioned bool
	}{
		{"float-sum-avg", `SELECT k, sx, ax, n FROM FV WHERE k <> 4 OR k IS NULL GROUP BY k ORDER BY k NULLS LAST`, true},
		{"null-key-equals", `SELECT c.k,
			(SELECT COUNT(*) FROM F WHERE F.k = c.k) AS n,
			(SELECT SUM(x) FROM F WHERE F.k = c.k) AS s,
			(SELECT AVG(x) FROM F WHERE F.k = c.k) AS a
			FROM C c ORDER BY c.k NULLS LAST`, true},
		{"null-key-not-distinct", `SELECT c.k,
			(SELECT COUNT(*) FROM F WHERE F.k IS NOT DISTINCT FROM c.k) AS n,
			(SELECT SUM(x) FROM F WHERE F.k IS NOT DISTINCT FROM c.k) AS s
			FROM C c ORDER BY c.k NULLS LAST`, true},
		// 9 has no rows: COUNT 0, SUM NULL; NULL under = likewise.
		{"empty-bucket", `SELECT c.k,
			(SELECT COUNT(*) FROM F WHERE F.k = c.k AND x > 0) AS n,
			(SELECT SUM(big) FROM F WHERE F.k = c.k AND x > 0 AND k < 4) AS s
			FROM C c ORDER BY c.k NULLS LAST`, true},
		// Bucket 4's SUM overflows while it is folded; no context reads
		// it, so the statement succeeds, per context.
		{"overflow-unread-bucket", `SELECT c.k, (SELECT SUM(big) FROM F WHERE F.k = c.k) AS s
			FROM C c ORDER BY c.k NULLS LAST`, false},
		{"in-set", `SELECT c.k, 'a' IN (SELECT g FROM F WHERE F.k IS NOT DISTINCT FROM c.k) AS hasA,
			'z' IN (SELECT g FROM F WHERE F.k = c.k) AS hasZ
			FROM C c ORDER BY c.k NULLS LAST`, true},
		// Linked by position, with a DOUBLE dimension and without, each
		// group reads its own rows: nothing is partitioned.
		{"joined-measure-null-link", `SELECT f.k, COUNT(*) AS n, p.avgAge AT (VISIBLE) AS v
			FROM F AS f JOIN (SELECT name, age, age * 1.5 AS ageD, AVG(age) AS MEASURE avgAge FROM P) AS p ON f.g = p.name
			GROUP BY f.k ORDER BY f.k NULLS LAST`, false},
		{"joined-measure-by-position", `SELECT f.k, COUNT(*) AS n, p.avgAge AT (VISIBLE) AS v
			FROM F AS f JOIN (SELECT *, AVG(age) AS MEASURE avgAge FROM P) AS p ON f.g = p.name
			GROUP BY f.k ORDER BY f.k NULLS LAST`, false},
	}
	open := func(s msql.Strategy) *msql.DB {
		db := msql.Open()
		db.MustExec(foldSetupSQL)
		db.SetStrategy(s)
		return db
	}
	oracleDB := open(msql.StrategyNaive)
	oracleDB.SetWorkers(1)
	memoDB := open(msql.StrategyMemo)
	dbs := []struct {
		name string
		db   *msql.DB
	}{{"memo", memoDB}, {"default", open(msql.StrategyDefault)}}
	ctx := context.Background()
	for _, tc := range cases {
		oracle, err := oracleDB.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		want := exactRows(oracle)
		for _, c := range dbs {
			for _, rollups := range []bool{false, true} {
				c.db.SetRollups(rollups)
				for _, workers := range []int{1, 4} {
					got, err := c.db.QueryContext(ctx, tc.sql, msql.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s %s/w%d/rollups=%v: %v", tc.name, c.name, workers, rollups, err)
					}
					if have := exactRows(got); strings.Join(have, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s %s/w%d/rollups=%v:\n%s\nper-context oracle:\n%s", tc.name, c.name, workers, rollups,
							strings.Join(have, "\n"), strings.Join(want, "\n"))
					}
				}
				c.db.SetRollups(false)
			}
		}
		memoDB.SetWorkers(1)
		txt, err := memoDB.ExplainAnalyze(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(txt, "partitioned="); got != tc.partitioned {
			t.Fatalf("%s: partitioned=%v, want %v:\n%s", tc.name, got, tc.partitioned, txt)
		}
		// An operator a partition folds reports the rows its one pass
		// kept, not the zero rows it was never run for.
		if strings.Contains(txt, "(rows=0 ") {
			t.Fatalf("%s: an operator reports no rows:\n%s", tc.name, txt)
		}
	}
}
