package msql_test

// Differential mutation-replay harness for the materialized rollup
// lattice (experiment E30's correctness side). Two identically seeded
// databases — one with the lattice enabled, one without — replay the
// same interleaved schedule of generated queries and mutations (INSERT
// batches, TRUNCATE, scratch-table DDL); after every step both engines
// must agree bit for bit, including on whether a statement errors. The
// lattice-off engine is the oracle.
//
// Comparison here is stricter than the vectorized harness's 2-decimal
// float rendering: floats compare by their exact bit pattern (hex
// FormatFloat), because the lattice's claim is bit-identity, not
// tolerance — any query it cannot reproduce exactly must miss instead.
//
// The schedule length scales with MSQL_DIFF_QUERIES but never drops
// below 500 steps per configuration.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/qgen"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// exactRows renders a result for bit-exact comparison: floats as hex
// bit patterns, NULLs tagged with their kind, everything else through
// the standard value renderer.
func exactRows(res *msql.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			switch {
			case v.Null:
				cells[j] = fmt.Sprintf("NULL:%d", v.K)
			case v.K == sqltypes.KindFloat:
				cells[j] = strconv.FormatFloat(v.AsFloat(), 'x', -1, 64)
			default:
				cells[j] = v.String()
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

func rollupScheduleSteps(t testing.TB) int {
	steps := 2 * diffCorpusSize(t)
	if steps < 500 {
		steps = 500
	}
	return steps
}

// TestDifferentialRollupMutationReplay replays one interleaved
// query/mutation schedule per (strategy, workers) configuration.
func TestDifferentialRollupMutationReplay(t *testing.T) {
	const seed = 20240805
	steps := rollupScheduleSteps(t)
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		for _, workers := range []int{1, 4} {
			strategy, workers := strategy, workers
			t.Run(fmt.Sprintf("%s-w%d", strategy.name, workers), func(t *testing.T) {
				t.Parallel()
				oracle := buildRandomDB(t, 99, strategy.s)
				latticed := buildRandomDB(t, 99, strategy.s)
				latticed.SetRollups(true)
				oracle.SetWorkers(workers)
				latticed.SetWorkers(workers)

				queries := qgen.New(seed, qgen.DefaultCatalog())
				mutations := qgen.New(seed+1, qgen.DefaultCatalog())
				sched := rand.New(rand.NewSource(seed + 2))

				nQueries, nMutations := 0, 0
				for i := 0; i < steps; i++ {
					if sched.Intn(3) == 0 {
						m := mutations.Mutation()
						nMutations++
						errO := oracle.Exec(m)
						errL := latticed.Exec(m)
						if (errO == nil) != (errL == nil) {
							t.Fatalf("step %d (seed %d) mutation disagrees on error\nSQL: %s\noracle: %v\nlattice: %v",
								i, seed, m, errO, errL)
						}
						continue
					}
					q := queries.Query()
					nQueries++
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("step %d (seed %d)\nSQL: %s\n%s", i, seed, q, fmt.Sprintf(format, args...))
					}
					want, errO := oracle.Query(q)
					got, errL := latticed.Query(q)
					if (errO == nil) != (errL == nil) {
						fail("disagrees on error: oracle=%v lattice=%v", errO, errL)
					}
					if errO != nil {
						continue
					}
					w, h := exactRows(want), exactRows(got)
					if len(w) != len(h) {
						fail("row count: oracle=%d lattice=%d", len(w), len(h))
					}
					for r := range w {
						if w[r] != h[r] {
							fail("row %d differs:\noracle:  %s\nlattice: %s", r, w[r], h[r])
						}
					}
				}
				st := latticed.RollupStats()
				if st.Hits == 0 {
					t.Fatalf("lattice never answered a query across %d queries / %d mutations (misses=%d)",
						nQueries, nMutations, st.Misses)
				}
				if oracleHits := oracle.RollupStats().Hits; oracleHits != 0 {
					t.Fatalf("oracle recorded %d rollup hits with rollups disabled", oracleHits)
				}
				t.Logf("%d queries, %d mutations: hits=%d misses=%d builds=%d rebuilds=%d incr=%d inval=%d",
					nQueries, nMutations, st.Hits, st.Misses, st.Builds, st.Rebuilds,
					st.IncrementalRows, st.Invalidations)
			})
		}
	}
}

// orderSensitiveQueries each fold a DOUBLE accumulation (SUM, AVG,
// VAR_SAMP or STDDEV_POP) beside MIN, MAX and ARG_MAX, directly or
// through a measure, so every lattice node they build is one whose
// states do not merge exactly: appending a row to such a node is only
// right if its Add stream is the one a scan in row order makes.
var orderSensitiveQueries = []string{
	`SELECT g, SUM(x), AVG(x), VAR_SAMP(x), STDDEV_POP(x), MIN(x), MAX(x), ARG_MAX(h, COALESCE(x, -1000.0)) FROM F GROUP BY g`,
	`SELECT g, h, AVG(x), VAR_SAMP(x), MIN(x) FROM F GROUP BY g, h`,
	`SELECT g, AVG(x), STDDEV_POP(x), ARG_MAX(h, COALESCE(x, -1000.0)) FROM F WHERE h = 'h1' GROUP BY g`,
	`SELECT h, SUM(x), MAX(x) FROM F WHERE x > 10.5 GROUP BY h`,
	`SELECT g, h, SUM(x), AVG(x), COUNT(*) FROM F GROUP BY ROLLUP(g, h)`,
	`SELECT g, AGGREGATE(ax), AGGREGATE(vx), sx AT (ALL g), dx AT (ALL h) FROM FV GROUP BY g`,
	`SELECT h, AGGREGATE(sx), AGGREGATE(spread), ax AT (ALL) FROM FV WHERE g = 'g2' GROUP BY h`,
	`SELECT g, h, AGGREGATE(dx), ax AT (ALL h), spread AT (SET h = 'h0') FROM FV GROUP BY g, h`,
	`SELECT g, AGGREGATE(spread), AGGREGATE(sx) FROM FV WHERE x < 40.25 GROUP BY g`,
}

// orderSensitiveRow renders one random F row: x is a DOUBLE whose sums
// round differently in another order, now and then NULL, 0 or -0.
func orderSensitiveRow(rng *rand.Rand) string {
	x := strconv.FormatFloat(float64(rng.Intn(20000))/7-300, 'g', -1, 64)
	switch rng.Intn(12) {
	case 0:
		x = "NULL"
	case 1:
		x = "0.0"
	case 2:
		x = "-0.0"
	}
	return fmt.Sprintf("('g%d', 'h%d', %s)", rng.Intn(4), rng.Intn(3), x)
}

// TestDifferentialRollupOrderSensitive replays interleaved INSERT
// batches, TRUNCATEs and queries over DOUBLE aggregates on a database
// with the lattice and one without, per (strategy, workers)
// configuration; floats compare by bit pattern. A lattice node folds each
// delta row into its group's states in row order, the Add stream of a
// scan, so even aggregates whose states do not merge exactly must come
// out bit for bit.
func TestDifferentialRollupOrderSensitive(t *testing.T) {
	const seed = 20261018
	const steps = 420
	open := func(strategy msql.Strategy, workers int) *msql.DB {
		db := msql.Open()
		db.MustExec(`CREATE TABLE F (g VARCHAR, h VARCHAR, x DOUBLE)`)
		db.MustExec(`CREATE VIEW FV AS SELECT *, SUM(x) AS MEASURE sx, AVG(x) AS MEASURE ax,
			VAR_SAMP(x) AS MEASURE vx, STDDEV_POP(x) AS MEASURE dx,
			(MAX(x) - MIN(x)) / (1 + STDDEV_POP(x)) AS MEASURE spread FROM F`)
		db.SetStrategy(strategy)
		db.SetWorkers(workers)
		return db
	}
	for _, strategy := range []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	} {
		for _, workers := range []int{1, 4} {
			strategy, workers := strategy, workers
			t.Run(fmt.Sprintf("%s-w%d", strategy.name, workers), func(t *testing.T) {
				t.Parallel()
				oracle, latticed := open(strategy.s, workers), open(strategy.s, workers)
				latticed.SetRollups(true)
				check := func(i int, q string) {
					t.Helper()
					want, err := oracle.Query(q)
					if err != nil {
						t.Fatalf("step %d: %s: %v", i, q, err)
					}
					got, err := latticed.Query(q)
					if err != nil {
						t.Fatalf("step %d: %s: lattice: %v", i, q, err)
					}
					if w, h := strings.Join(exactRows(want), "\n"), strings.Join(exactRows(got), "\n"); w != h {
						t.Fatalf("step %d (seed %d)\nSQL: %s\noracle:\n%s\nlattice:\n%s", i, seed, q, w, h)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				nQueries, nMutations := 0, 0
				for i := 0; i < steps; i++ {
					if i == 0 || rng.Intn(3) == 0 {
						m := `TRUNCATE TABLE F`
						if i == 0 || rng.Intn(10) != 0 {
							vals := make([]string, 1+rng.Intn(8))
							if i == 0 {
								vals = make([]string, 60)
							}
							for j := range vals {
								vals[j] = orderSensitiveRow(rng)
							}
							m = `INSERT INTO F VALUES ` + strings.Join(vals, ", ")
						}
						nMutations++
						if err := oracle.Exec(m); err != nil {
							t.Fatalf("step %d: %s: %v", i, m, err)
						}
						if err := latticed.Exec(m); err != nil {
							t.Fatalf("step %d: %s: %v", i, m, err)
						}
						continue
					}
					nQueries++
					check(i, orderSensitiveQueries[rng.Intn(len(orderSensitiveQueries))])
				}
				st := latticed.RollupStats()
				if st.Hits == 0 {
					t.Fatalf("lattice never answered across %d queries / %d mutations (misses=%d)", nQueries, nMutations, st.Misses)
				}

				// One more row into the first query's node, which holds
				// only order-sensitive aggregates: the node takes in that
				// one row and no other (IncrementalRows; Rebuilds counted
				// its group where a node rebuilt instead), and builds
				// nothing.
				q := orderSensitiveQueries[0]
				check(steps, q)
				before := latticed.RollupStats()
				m := `INSERT INTO F VALUES ('g0', 'h2', 0.1)`
				oracle.MustExec(m)
				latticed.MustExec(m)
				check(steps+1, q)
				after := latticed.RollupStats()
				if rows := after.IncrementalRows - before.IncrementalRows + after.Rebuilds - before.Rebuilds; rows != 1 || after.Builds != before.Builds {
					t.Fatalf("one delta row reached the order-sensitive node as %d rows, builds +%d: %+v",
						rows, after.Builds-before.Builds, after)
				}
				t.Logf("%d queries, %d mutations: hits=%d misses=%d builds=%d rebuilds=%d incr=%d inval=%d",
					nQueries, nMutations, st.Hits, st.Misses, st.Builds, st.Rebuilds,
					st.IncrementalRows, st.Invalidations)
			})
		}
	}
}
