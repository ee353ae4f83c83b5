package main

// Workload definitions: the dataset, the statement templates of each
// request class, and the seeded per-client operation sequences. Every
// sequence is a pure function of (workload, seed, client index), so two
// commits under comparison execute identical statements.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Dataset shape (ISSUE "dataset D"); Orders is scaled per workload.
const (
	numCustomers = 500
	numProducts  = 50
	numYears     = 4
	// numClients is the closed-loop client count: one goroutine and one
	// connection each (BI callers wait for their reply; 2 = nproc in the
	// sandbox this was sized on).
	numClients = 2
)

// viewSQL defines the one measure view every measure query reads.
const viewSQL = `CREATE VIEW EO AS
SELECT *, YEAR(orderDate) AS orderYear,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin,
       SUM(revenue) AS MEASURE sumRevenue
FROM Orders`

// Request classes; client.p50_ms.<class> is reported for each.
var classes = []string{
	"agg", "at_all", "at_set", "at_visible", "join", "plain",
	"tile_prepared", "tile_text", "insert_batch", "routed", "scatter", "gather",
}

type opKind uint8

const (
	opQuery    opKind = iota // literal SQL through client.Query
	opPrepared               // client.Stmt.Exec with one typed binding
	opInsert                 // INSERT ... VALUES text through client.Query
)

// op is one client operation. sql is always the literal text form: it
// is what opQuery/opInsert send, and for opPrepared it is the
// equivalent statement the oracle and the staged replay run.
type op struct {
	class string
	kind  opKind
	sql   string
	tile  int // opPrepared: index into tiles
	arg   any // opPrepared: the binding
	// rows holds an insert batch's typed rows so the oracle can apply
	// the same mutation without re-parsing.
	rows [][]sqltypes.Value
	// expand, when set, names a statement shape that references a
	// measure; the oracle checks the first statement of each shape
	// against its db.Expand'ed plain-SQL form.
	expand string
}

func (o *op) isRead() bool { return o.kind != opInsert }

// workload describes one traffic mix and the deployment it runs on.
type workload struct {
	name string
	why  string
	// orders/quickOrders size the Orders table.
	orders, quickOrders int
	rollups             bool // msqld -rollups
	durable             bool // msqld -data-dir, wal-sync=always
	fleet               bool // msqlcoord over two msqld shards
	tiles               bool // clients prepare the dashboard tiles
	// insertEvery, when set, paces insert_batch ops: a client sends its
	// k-th batch k intervals into the phase, once the previous one is
	// acknowledged. An unpaced writer is bound by fsync latency, which on
	// a shared host swings the row count, the invalidation rate the reader
	// sees and the heap from run to run.
	insertEvery time.Duration
	// seqLen/quickSeqLen is the per-client sequence length; the timed
	// phase replays the sequence cyclically.
	seqLen, quickSeqLen int
	// warmReads/quickWarmReads is the per-client length of the warm
	// pass: one round of the class cycle or of the tiles.
	warmReads, quickWarmReads int
	gen                       func(g *generator, client, n int) []op
}

var workloads = []*workload{
	{
		name:   "adhoc_measures",
		why:    "fresh-literal measure queries (AGGREGATE, AT ALL/SET/VISIBLE, join) with rollups off: exec, storage and core do the work and no cache can answer",
		orders: 10000, quickOrders: 1500, seqLen: 40, quickSeqLen: 20,
		warmReads: 20, quickWarmReads: 20,
		gen: genAdhoc,
	},
	{
		name:   "dashboard_repeat",
		why:    "12 dashboard tiles, Zipf-repeated bindings, rollups on: client, wire, server, parser, binder and the plan cache, result memo and lattice do the work, exec little",
		orders: 20000, quickOrders: 1500, seqLen: 384, quickSeqLen: 36,
		warmReads: 36, quickWarmReads: 12,
		rollups: true, tiles: true,
		gen: genDashboard,
	},
	{
		name:   "ingest_mixed",
		why:    "durable server, one client inserting a 200-row batch every 40 ms while the other replays dashboard tiles: every insert invalidates plans and memos, folds lattice deltas and appends to the WAL",
		orders: 20000, quickOrders: 1500, seqLen: 384, quickSeqLen: 36,
		warmReads: 36, quickWarmReads: 12,
		rollups: true, durable: true, tiles: true,
		insertEvery: 40 * time.Millisecond,
		gen:         genIngest,
	},
	{
		name:   "sharded_fleet",
		why:    "coordinator over two shards, 30% routed, 40% scatter, 20% gather, 10% inserts: dist, wire, server and client dominate over two hops and exec is split in half",
		orders: 6000, quickOrders: 800, seqLen: 120, quickSeqLen: 20,
		warmReads: 20, quickWarmReads: 10,
		fleet: true,
		gen:   genFleet,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) mutating() bool { return w.durable || w.fleet }

// generator carries the seeded state shared by one workload's clients.
type generator struct {
	seed int64
	// seen dedupes literal statements across clients so every adhoc op
	// is a distinct statement.
	seen map[string]bool
}

func (g *generator) rng(client int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + int64(client)*7919 + salt))
}

// dataset generates the base tables for a workload at this seed.
func dataset(seed int64, orders int) *datagen.Dataset {
	return datagen.Generate(datagen.Config{
		Seed: seed, Customers: numCustomers, Products: numProducts, Orders: orders, Years: numYears,
	})
}

// ---------------------------------------------------------------------
// adhoc_measures

// adhocCycle fixes the class mix: 3 plain, 4 agg, 6 at_visible, 2 at_set,
// 3 at_all, 2 join in 20. Ordered by latency, at_visible spans ranks
// 35-65 % and join, the slowest, 90-100 %, so the median and the p95 each
// sit at the middle of one class's distribution, not on a boundary
// between two.
var adhocCycle = []string{
	"plain", "agg", "at_visible", "at_all", "at_visible", "join", "agg", "at_visible", "at_set", "plain",
	"at_visible", "at_all", "agg", "at_visible", "join", "at_set", "agg", "at_visible", "at_all", "plain",
}

var adhocTemplates = map[string]string{
	// Listing 4.
	"agg": `SELECT prodName, AGGREGATE(margin) AS m, COUNT(*) AS n
FROM EO WHERE %s GROUP BY prodName ORDER BY prodName`,
	// Listing 6: share of total; every bare reference is its own context.
	"at_all": `SELECT prodName, AGGREGATE(sumRevenue) AS r,
       sumRevenue / sumRevenue AT (ALL prodName) AS share
FROM EO WHERE %s GROUP BY prodName ORDER BY prodName`,
	// Listing 10 shape: year over year.
	"at_set": `SELECT orderYear, AGGREGATE(sumRevenue) AS r,
       sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS lastYear
FROM EO WHERE %s GROUP BY orderYear ORDER BY orderYear`,
	"at_visible": `SELECT prodName, AGGREGATE(sumRevenue) AS vis, sumRevenue AT (ALL) AS total
FROM EO WHERE %s GROUP BY prodName ORDER BY prodName`,
	// Listing 9: a measure reached through a join.
	// The context is re-evaluated per group and each evaluation scans
	// Orders, so this groups by year (4 groups), not by product (50).
	"join": `SELECT YEAR(o.orderDate) AS y, COUNT(*) AS orderCount, AVG(c.custAge) AS weightedAvgAge,
       c.avgAge AT (VISIBLE) AS visibleAvgAge
FROM Orders AS o
JOIN (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers) AS c USING (custName)
WHERE %s GROUP BY YEAR(o.orderDate) ORDER BY y`,
	"plain": `SELECT custName, COUNT(*) AS n, SUM(revenue) AS rev
FROM Orders WHERE %s GROUP BY custName ORDER BY custName`,
}

// freshPredicate draws a two-literal predicate not used before at this
// seed, so no statement text repeats within a sequence.
func (g *generator) freshPredicate(r *rand.Rand, class string) string {
	for {
		// Narrow ranges keep the selectivity, and so a class's cost, alike
		// from one statement to the next.
		a, b := 10+r.Intn(10), 80+r.Intn(20)
		var p string
		if class == "join" {
			p = fmt.Sprintf("c.custAge >= %d AND o.revenue > %d", 14+r.Intn(8), a)
		} else {
			p = fmt.Sprintf("revenue > %d AND cost < %d", a, b)
		}
		key := class + "|" + p
		if !g.seen[key] {
			g.seen[key] = true
			return p
		}
	}
}

func genAdhoc(g *generator, client, n int) []op {
	r := g.rng(client, 1)
	ops := make([]op, n)
	for i := range ops {
		class := adhocCycle[i%len(adhocCycle)]
		ops[i] = op{class: class, kind: opQuery,
			sql: fmt.Sprintf(adhocTemplates[class], g.freshPredicate(r, class))}
		// EXPAND rejects measures under joins, so join has no plain form.
		if class != "plain" && class != "join" {
			ops[i].expand = class
		}
	}
	return ops
}

// ---------------------------------------------------------------------
// dashboard_repeat

// tile is one dashboard panel: a one-parameter statement and the map
// from a binding index in [0, numBindings) to the parameter value.
type tile struct {
	name string
	sql  string
	arg  func(b int) any
	// expand marks a measure tile whose shape EXPAND supports (it
	// rejects ROLLUP), so the oracle checks it against its plain form.
	expand bool
}

// numBindings is the binding domain per tile: 12 plans fit the
// 128-entry plan cache, 64 bindings do not fit the 8-entry per-plan
// result memo.
const numBindings = 64

func custArg(b int) any { return datagen.CustomerName(b) }
func prodArg(b int) any { return datagen.ProductName(b % numProducts) }
func yearArg(b int) any { return 2021 + b%numYears }
func numArg(b int) any  { return 10 + b }

// tiles: equality pins are group selections the lattice answers; the
// two Customers tiles take a range binding, which the lattice cannot
// bake into a node, so they run the cached pipeline. None scans Orders
// once the lattice is warm: per-op engine time stays well under the
// wire and server time around it.
var tiles = []tile{
	{"rev_by_prod_for_cust", `SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev FROM Orders WHERE custName = $1 GROUP BY prodName ORDER BY prodName`, custArg, false},
	{"margin_by_prod_in_year", `SELECT prodName, AGGREGATE(margin) AS m FROM EO WHERE orderYear = $1 GROUP BY prodName ORDER BY prodName`, yearArg, true},
	{"share_by_year_for_prod", `SELECT orderYear, AGGREGATE(sumRevenue) AS r, sumRevenue / sumRevenue AT (ALL orderYear) AS share FROM EO WHERE prodName = $1 GROUP BY orderYear ORDER BY orderYear`, prodArg, true},
	{"rev_by_year_for_cust", `SELECT orderYear, AGGREGATE(sumRevenue) AS r FROM EO WHERE custName = $1 GROUP BY orderYear ORDER BY orderYear`, custArg, true},
	{"top_products_in_year", `SELECT prodName, SUM(revenue) AS rev FROM EO WHERE orderYear = $1 GROUP BY prodName ORDER BY rev DESC, prodName LIMIT 10`, yearArg, true},
	{"kpi_for_prod", `SELECT COUNT(*) AS n, SUM(revenue) AS rev, SUM(cost) AS cost FROM Orders WHERE prodName = $1`, prodArg, false},
	{"yoy_for_prod", `SELECT orderYear, AGGREGATE(sumRevenue) AS r, sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS lastYear FROM EO WHERE prodName = $1 GROUP BY orderYear ORDER BY orderYear`, prodArg, true},
	{"margin_vs_overall", `SELECT orderYear, AGGREGATE(margin) AS vis, margin AT (ALL) AS overall FROM EO WHERE prodName = $1 GROUP BY orderYear ORDER BY orderYear`, prodArg, true},
	{"customers_by_age_from", `SELECT custAge, COUNT(*) AS n FROM Customers WHERE custAge >= $1 GROUP BY custAge ORDER BY custAge`, numArg, false},
	{"cost_hist_for_prod", `SELECT cost / 10 AS bucket, COUNT(*) AS n FROM Orders WHERE prodName = $1 GROUP BY cost / 10 ORDER BY bucket`, prodArg, false},
	{"rollup_year_for_cust", `SELECT orderYear, AGGREGATE(sumRevenue) AS r FROM EO WHERE custName = $1 GROUP BY ROLLUP(orderYear) ORDER BY orderYear NULLS LAST`, custArg, false},
	{"age_decades_under", `SELECT custAge / 10 AS decade, COUNT(*) AS n FROM Customers WHERE custAge < $1 GROUP BY custAge / 10 ORDER BY decade`, numArg, false},
}

// literal renders a binding as a SQL literal for the text form.
func literal(v any) string {
	if s, ok := v.(string); ok {
		return sqltypes.NewString(s).SQLLiteral()
	}
	return fmt.Sprint(v)
}

func tileText(t int, arg any) string {
	return strings.ReplaceAll(tiles[t].sql, "$1", literal(arg))
}

// tileOps builds a dashboard sequence: each round visits the 12 tiles
// in a seeded order with a binding index drawn Zipf(1.1) over
// [0, numBindings); two of every three ops are prepared executions, the
// third is the same tile as literal SQL.
func tileOps(r *rand.Rand, n int) []op {
	z := rand.NewZipf(r, 1.1, 1, numBindings-1)
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, t := range r.Perm(len(tiles)) {
			if len(ops) == n {
				break
			}
			arg := tiles[t].arg(int(z.Uint64()))
			o := op{class: "tile_prepared", kind: opPrepared, tile: t, arg: arg, sql: tileText(t, arg)}
			if tiles[t].expand {
				o.expand = tiles[t].name
			}
			if len(ops)%3 == 2 {
				o.class, o.kind = "tile_text", opQuery
			}
			ops = append(ops, o)
		}
	}
	return ops
}

func genDashboard(g *generator, client, n int) []op {
	return tileOps(g.rng(client, 2), n)
}

// ---------------------------------------------------------------------
// ingest_mixed and the insert batches sharded_fleet shares

const (
	ingestBatchRows = 200
	fleetBatchRows  = 10
	// checkpointEvery is the number of acknowledged insert batches
	// between db.Checkpoint() calls in ingest_mixed. The paced writer
	// lands 25 batches a second, so 60 (not ISSUE 11's 50) leaves a log
	// tail for recovery to replay when a phase ends on a whole second.
	checkpointEvery = 60
)

// insertOps renders n insert batches of batchRows rows each, drawn from
// a dataset generated at a seed derived from (seed, client).
func insertOps(g *generator, client, n, batchRows int) []op {
	pool := dataset(g.seed*31+int64(client)+1000, n*batchRows).Orders
	ops := make([]op, n)
	for i := range ops {
		rows := pool[i*batchRows : (i+1)*batchRows]
		ops[i] = op{class: "insert_batch", kind: opInsert, rows: rows,
			sql: (&datagen.Dataset{Orders: rows}).InsertSQL()}
	}
	return ops
}

func genIngest(g *generator, client, n int) []op {
	if client == 0 {
		return insertOps(g, client, n, ingestBatchRows)
	}
	return tileOps(g.rng(client, 2), n)
}

// ---------------------------------------------------------------------
// sharded_fleet

// fleetCycle is 6 routed, 8 scatter, 4 gather, 2 insert_batch in 20.
// ISSUE 11 asked for 40/35/15/10 %; with routed + insert at exactly half
// the ops the median fell on the boundary between routed (2 ms) and
// scatter (11 ms) and flipped between them from run to run. At 30/40/20/10
// the median lies inside scatter and the p95 inside gather.
var fleetCycle = []string{
	"routed", "scatter", "gather", "scatter", "routed", "scatter", "insert_batch", "scatter", "gather", "routed",
	"scatter", "routed", "gather", "scatter", "routed", "scatter", "insert_batch", "gather", "routed", "scatter",
}

var fleetTemplates = map[string]string{
	// WHERE pins Orders' partition column (the default: its first column).
	"routed": `SELECT custName, COUNT(*) AS n, SUM(revenue) AS rev
FROM Orders WHERE prodName = '%s' AND revenue > %d GROUP BY custName ORDER BY custName`,
	// Partition-mergeable aggregates.
	"scatter": `SELECT prodName, COUNT(*) AS cnt, SUM(revenue) AS rev, SUM(revenue - cost) AS profit
FROM Orders WHERE revenue > %d AND cost < %d GROUP BY prodName ORDER BY prodName`,
	// A measure query: the always-correct gather fallback.
	"gather": `SELECT prodName, AGGREGATE(margin) AS m
FROM EO WHERE revenue > %d GROUP BY prodName ORDER BY prodName`,
}

func genFleet(g *generator, client, n int) []op {
	r := g.rng(client, 3)
	nInserts := 0
	for i := 0; i < n; i++ {
		if fleetCycle[i%len(fleetCycle)] == "insert_batch" {
			nInserts++
		}
	}
	inserts := insertOps(g, client, nInserts, fleetBatchRows)
	ops := make([]op, n)
	for i := range ops {
		class := fleetCycle[i%len(fleetCycle)]
		switch class {
		case "insert_batch":
			ops[i], inserts = inserts[0], inserts[1:]
		case "routed":
			ops[i] = op{class: class, kind: opQuery,
				sql: fmt.Sprintf(fleetTemplates[class], datagen.ProductName(r.Intn(numProducts)), 10+r.Intn(20))}
		case "scatter":
			ops[i] = op{class: class, kind: opQuery,
				sql: fmt.Sprintf(fleetTemplates[class], 10+r.Intn(20), 70+r.Intn(30))}
		case "gather":
			ops[i] = op{class: class, kind: opQuery, expand: class,
				sql: fmt.Sprintf(fleetTemplates[class], 10+r.Intn(20))}
		}
	}
	return ops
}

// sequences builds every client's sequence for w at seed.
func sequences(w *workload, seed int64, quick bool) [][]op {
	g := &generator{seed: seed, seen: map[string]bool{}}
	n := w.seqLen
	if quick {
		n = w.quickSeqLen
	}
	seqs := make([][]op, numClients)
	for c := range seqs {
		seqs[c] = w.gen(g, c, n)
	}
	return seqs
}
