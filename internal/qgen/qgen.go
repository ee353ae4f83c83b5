// Package qgen generates random-but-valid SQL queries for differential
// testing. Generation is catalog-driven and fully determined by the
// seed: the same (seed, catalog) pair always yields the same query
// sequence, so a failing query is reproducible from the seed printed by
// the harness.
//
// Two query families are produced. Measure queries exercise the paper's
// surface — GROUP BY subsets and ROLLUP, measure references with every
// AT modifier (ALL, ALL dim, SET, WHERE, VISIBLE), AGGREGATE and EVAL —
// while scalar queries exercise the expression engine: arithmetic,
// comparisons, AND/OR/NOT three-valued logic, IS NULL, IN, CASE, and
// CAST, the exact operator set the vectorized kernels cover (plus the
// shapes that force its row fallback).
//
// With SetLift(true) the generator additionally lifts every literal to
// a $n placeholder and records the literal text, producing the corpus
// for the prepared-statement differential harness: substituting the
// recorded literals back into the placeholders reproduces the plain
// query exactly, and lifting consumes no randomness, so a plain and a
// lifting generator at the same seed emit pairwise-equivalent queries.
package qgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Catalog describes the queryable surface the generator draws from. All
// names are used verbatim in the generated SQL.
type Catalog struct {
	// Table is the measure view measure queries select from.
	Table string
	// RowTable is the raw table scalar queries select from.
	RowTable string
	// Dims are groupable dimension columns of Table.
	Dims []string
	// IntCols are integer columns present in both Table and RowTable.
	IntCols []string
	// StrCols are string columns present in both (nullable ones are
	// fine; the generator leans on IS NULL).
	StrCols []string
	// Measures are measure columns of Table.
	Measures []string
	// DimValues holds sample string literals per dimension, used for
	// SET modifiers and string comparisons.
	DimValues map[string][]string
}

// DefaultCatalog matches the EO view the tests build over the synthetic
// datagen Orders table (see buildRandomDB in msql/property_test.go).
func DefaultCatalog() Catalog {
	return Catalog{
		Table:    "EO",
		RowTable: "Orders",
		Dims:     []string{"prodName", "custName", "orderYear"},
		IntCols:  []string{"revenue", "cost"},
		StrCols:  []string{"prodName", "custName"},
		Measures: []string{"rev", "cnt", "margin"},
		DimValues: map[string][]string{
			"prodName": {"prod000", "prod001", "prod002"},
			"custName": {"cust0001", "cust0002", "cust0003"},
		},
	}
}

// Generator produces a deterministic stream of queries.
type Generator struct {
	rng    *rand.Rand
	cat    Catalog
	lift   bool
	params []string
	// scratch tracks whether the mutation stream's scratch table
	// currently exists (see Mutation).
	scratch bool
}

// New returns a generator for the catalog, seeded so the query stream
// is reproducible.
func New(seed int64, cat Catalog) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), cat: cat}
}

// SetLift toggles parameter lifting. When on, every liftable literal
// site emits a $n placeholder instead of the literal and records the
// literal's SQL text (retrievable with TakeParams). Lifting consumes no
// randomness, so a lifting generator stays in lockstep with a plain
// generator at the same seed: query i from one is the parameterized
// twin of query i from the other. ORDER BY ordinals are never lifted —
// they are syntax, not values.
func (g *Generator) SetLift(on bool) { g.lift = on }

// TakeParams returns the SQL literal texts lifted by the most recent
// query, in placeholder order ($1 first), and resets the list.
func (g *Generator) TakeParams() []string {
	p := g.params
	g.params = nil
	return p
}

// lit returns the literal SQL text verbatim, or — when lifting — records
// it and returns the next $n placeholder. It never touches the RNG.
func (g *Generator) lit(text string) string {
	if !g.lift {
		return text
	}
	g.params = append(g.params, text)
	return fmt.Sprintf("$%d", len(g.params))
}

// Query returns the next random query: usually a measure query, with a
// steady minority of scalar queries for expression-engine coverage.
func (g *Generator) Query() string {
	if g.rng.Intn(10) < 3 {
		return g.ScalarQuery()
	}
	return g.MeasureQuery()
}

func (g *Generator) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// intExpr generates an integer-valued expression over the catalog's
// integer columns. Literal magnitudes are kept small enough that no
// depth-2 product can overflow int64.
func (g *Generator) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.pick(g.cat.IntCols)
		}
		return g.lit(fmt.Sprintf("%d", g.rng.Intn(100)))
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.lit(fmt.Sprintf("%d", 1+g.rng.Intn(9))))
	case 3:
		// Integer % with a nonzero literal divisor.
		return fmt.Sprintf("(%s %% %s)", g.intExpr(depth-1), g.lit(fmt.Sprintf("%d", 2+g.rng.Intn(9))))
	default:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
			g.boolExpr(0), g.intExpr(depth-1), g.intExpr(depth-1))
	}
}

// numCmp is a comparison between two numeric expressions; / produces a
// float left side now and then (x/0 is NULL, never an error).
func (g *Generator) numCmp(depth int) string {
	op := g.pick([]string{"=", "<>", "<", "<=", ">", ">="})
	if g.rng.Intn(5) == 0 {
		return fmt.Sprintf("%s / %s %s %s", g.pick(g.cat.IntCols),
			g.lit(fmt.Sprintf("%d", 1+g.rng.Intn(4))), op, g.lit(fmt.Sprintf("%d", g.rng.Intn(50))))
	}
	return fmt.Sprintf("%s %s %s", g.intExpr(depth), op, g.intExpr(depth))
}

// boolExpr generates a boolean predicate; depth bounds AND/OR/NOT
// nesting.
func (g *Generator) boolExpr(depth int) string {
	if depth > 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s AND %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
		case 1:
			return fmt.Sprintf("(%s OR %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
		case 2:
			return fmt.Sprintf("NOT %s", g.boolExpr(depth-1))
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		dim := g.pickStrWithValues()
		return fmt.Sprintf("%s %s %s", dim, g.pick([]string{"=", "<>"}),
			g.lit(fmt.Sprintf("'%s'", g.pick(g.cat.DimValues[dim]))))
	case 1:
		return fmt.Sprintf("%s IS %sNULL", g.pick(g.cat.StrCols), g.pick([]string{"", "NOT "}))
	case 2:
		dim := g.pickStrWithValues()
		vals := g.cat.DimValues[dim]
		n := 1 + g.rng.Intn(len(vals))
		list := make([]string, n)
		for i := range list {
			list[i] = g.lit(fmt.Sprintf("'%s'", vals[i]))
		}
		return fmt.Sprintf("%s IN (%s)", dim, strings.Join(list, ", "))
	case 3:
		return fmt.Sprintf("CAST(%s AS FLOAT) %s %s",
			g.pick(g.cat.IntCols), g.pick([]string{"<", ">"}), g.lit(fmt.Sprintf("%d.5", g.rng.Intn(80))))
	default:
		return g.numCmp(1 + g.rng.Intn(2))
	}
}

func (g *Generator) pickStrWithValues() string {
	for {
		dim := g.pick(g.cat.StrCols)
		if len(g.cat.DimValues[dim]) > 0 {
			return dim
		}
	}
}

// atMods builds the parenthesized body of an AT: one or two modifiers
// drawn from ALL, ALL dim, SET dim = 'v', WHERE pred, VISIBLE.
func (g *Generator) atMods() string {
	var mods []string
	for i := 0; i < 1+g.rng.Intn(2); i++ {
		switch g.rng.Intn(5) {
		case 0:
			mods = append(mods, "ALL")
		case 1:
			mods = append(mods, "ALL "+g.pick(g.cat.Dims))
		case 2:
			dim := g.pickDimWithValues()
			mods = append(mods, fmt.Sprintf("SET %s = %s", dim,
				g.lit(fmt.Sprintf("'%s'", g.pick(g.cat.DimValues[dim])))))
		case 3:
			mods = append(mods, "WHERE "+g.boolExpr(1))
		default:
			mods = append(mods, "VISIBLE")
		}
	}
	return strings.Join(mods, " ")
}

func (g *Generator) pickDimWithValues() string {
	for {
		dim := g.pick(g.cat.Dims)
		if len(g.cat.DimValues[dim]) > 0 {
			return dim
		}
	}
}

// measureItem is one SELECT item referencing a measure, possibly with
// an AT context transform and an AGGREGATE/EVAL wrapper.
func (g *Generator) measureItem() string {
	m := g.pick(g.cat.Measures)
	switch g.rng.Intn(5) {
	case 0:
		return m
	case 1:
		return fmt.Sprintf("AGGREGATE(%s)", m)
	case 2:
		return fmt.Sprintf("EVAL(%s AT (VISIBLE))", m)
	default:
		return fmt.Sprintf("%s AT (%s)", m, g.atMods())
	}
}

// MeasureQuery returns a random aggregate query over the measure view:
// a random dimension subset (possibly ROLLUP), 1-3 measure items, an
// optional WHERE, and a deterministic ORDER BY over the keys.
func (g *Generator) MeasureQuery() string {
	g.params = nil
	dims := append([]string(nil), g.cat.Dims...)
	g.rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	keys := dims[:g.rng.Intn(len(dims)+1)]

	items := append([]string(nil), keys...)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		items = append(items, fmt.Sprintf("%s AS m%d", g.measureItem(), i))
	}

	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + g.cat.Table)
	if g.rng.Intn(2) == 0 {
		sb.WriteString(" WHERE " + g.boolExpr(g.rng.Intn(3)))
	}
	if len(keys) > 0 {
		if g.rng.Intn(3) == 0 {
			sb.WriteString(" GROUP BY ROLLUP(" + strings.Join(keys, ", ") + ")")
		} else {
			sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
		}
		order := make([]string, len(keys))
		for i := range keys {
			order[i] = fmt.Sprintf("%d NULLS FIRST", i+1)
		}
		sb.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	return sb.String()
}

// Mutation returns the next random mutation statement: usually a small
// INSERT batch into the raw table, occasionally TRUNCATE TABLE, and
// rarely scratch-table DDL churn (CREATE then DROP of a side table, so
// cached plans get invalidated without disturbing the data under
// test). The statement stream is fully determined by the seed, like
// the query stream, so a mutation schedule replays
// identically on two databases. The INSERT shape is the synthetic
// datagen Orders layout: (prodName VARCHAR, custName VARCHAR, orderDate
// DATE, revenue INTEGER, cost INTEGER).
func (g *Generator) Mutation() string {
	switch r := g.rng.Intn(24); {
	case r == 0:
		return "TRUNCATE TABLE " + g.cat.RowTable
	case r <= 2:
		if g.scratch {
			g.scratch = false
			return "DROP TABLE qgen_scratch"
		}
		g.scratch = true
		return "CREATE TABLE qgen_scratch (k VARCHAR, v INTEGER)"
	default:
		return g.insertBatch()
	}
}

// insertBatch renders an INSERT of 1-4 rows into the raw table, drawing
// dimension values from the catalog (plus a NULL product now and then,
// matching datagen's null fraction).
func (g *Generator) insertBatch() string {
	n := 1 + g.rng.Intn(4)
	rows := make([]string, n)
	for i := range rows {
		prod := "NULL"
		if g.rng.Intn(10) > 0 {
			prod = fmt.Sprintf("'%s'", g.pick(g.cat.DimValues["prodName"]))
		}
		cust := g.pick(g.cat.DimValues["custName"])
		date := fmt.Sprintf("DATE '202%d-%02d-%02d'",
			g.rng.Intn(3), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
		revenue := 1 + g.rng.Intn(100)
		cost := 1 + g.rng.Intn(revenue)
		rows[i] = fmt.Sprintf("(%s, '%s', %s, %d, %d)", prod, cust, date, revenue, cost)
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", g.cat.RowTable, strings.Join(rows, ", "))
}

// ScalarQuery returns a random non-aggregate projection over the raw
// table: arithmetic, CASE, CAST, and string items above an optional
// WHERE. Row order is the scan order, which both engines preserve, so
// no ORDER BY is needed.
func (g *Generator) ScalarQuery() string {
	g.params = nil
	var items []string
	for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
		var item string
		switch g.rng.Intn(6) {
		case 0:
			item = g.intExpr(2)
		case 1:
			item = fmt.Sprintf("%s / %s", g.pick(g.cat.IntCols), g.lit(fmt.Sprintf("%d", g.rng.Intn(4)))) // /0 -> NULL
		case 2:
			item = fmt.Sprintf("CAST(%s AS %s)", g.pick(g.cat.IntCols), g.pick([]string{"FLOAT", "VARCHAR", "BIGINT"}))
		case 3:
			item = g.pick(g.cat.StrCols)
		case 4:
			item = fmt.Sprintf("CASE WHEN %s THEN %s END", g.boolExpr(1), g.intExpr(1))
		default:
			item = fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
				g.boolExpr(0), g.pick(g.cat.StrCols), g.pick(g.cat.StrCols))
		}
		items = append(items, fmt.Sprintf("%s AS c%d", item, i))
	}
	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + g.cat.RowTable)
	if g.rng.Intn(3) > 0 {
		sb.WriteString(" WHERE " + g.boolExpr(g.rng.Intn(3)))
	}
	return sb.String()
}
