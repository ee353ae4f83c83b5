// Package storage provides the in-memory row store backing base tables.
// It is deliberately simple — an append-only slice of rows guarded by a
// RWMutex — because the paper's contribution is language semantics, not
// storage; the executor treats it as a RowSource.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// State is a table's data state. Within one Gen the rows only grow;
// Truncate starts the next Gen; a replaced table is another Table. Gen
// counts from 1, so the zero State is no table's: a source without
// stable rows (a virtual table) reports it.
type State struct {
	Gen  uint64
	Rows int
}

// Since is the staleness rule for everything derived from a table's
// rows. Whoever caches such a thing reads the table's State before
// computing, keeps it, and asks the State it reads at a later lookup
// what happened Since: ok says the rows read then are still the first
// then.Rows rows of the table, appended how many follow them. A cached
// value is good as it stands only if ok && appended == 0.
func (now State) Since(then State) (appended int, ok bool) {
	if then.Gen == 0 || now.Gen != then.Gen || now.Rows < then.Rows {
		return 0, false
	}
	return now.Rows - then.Rows, true
}

// Same reports that nothing changed Since then.
func (now State) Same(then State) bool {
	appended, ok := now.Since(then)
	return ok && appended == 0
}

// Table is an in-memory table: a fixed schema and a growing set of rows.
type Table struct {
	mu    sync.RWMutex
	name  string
	cols  []string
	types []sqltypes.Type
	rows  [][]sqltypes.Value
	gen   uint64
	// dict interns the values of each VARCHAR column (nil for the other
	// columns): a dimension repeats a few hundred names over every row,
	// and without it each stored row keeps its own copy of each. A
	// stored string is always the table's own copy: an inserted value
	// may be a substring of the script it was parsed from, which would
	// otherwise stay alive with the row.
	dict []map[string]string
}

// internLimit bounds a column's dictionary; past it, new values are
// copied as they are stored, not interned (a key-like column gains
// nothing from interning).
const internLimit = 1 << 12

// NewTable creates an empty table.
func NewTable(name string, cols []string, types []sqltypes.Type) *Table {
	t := &Table{name: name, cols: cols, types: types, gen: 1, dict: make([]map[string]string, len(types))}
	for j, typ := range types {
		if typ.Kind == sqltypes.KindString {
			t.dict[j] = map[string]string{}
		}
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// ColNames returns the column names.
func (t *Table) ColNames() []string { return t.cols }

// ColTypes returns the column types.
func (t *Table) ColTypes() []sqltypes.Type { return t.types }

// State returns the table's current data state.
func (t *Table) State() State {
	_, st := t.Snapshot()
	return st
}

// Snapshot returns a snapshot slice of the rows and the State they are
// in. Callers must not mutate the returned rows; Insert never mutates
// previously returned slices, so a running scan stays consistent.
func (t *Table) Snapshot() ([][]sqltypes.Value, State) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)], State{Gen: t.gen, Rows: len(t.rows)}
}

// Rows returns the rows of a Snapshot.
func (t *Table) Rows() [][]sqltypes.Value {
	rows, _ := t.Snapshot()
	return rows
}

// Insert appends rows after coercing each value to the column type.
// All-or-nothing: on a type error no row is inserted.
func (t *Table) Insert(rows [][]sqltypes.Value) error {
	coerced, err := t.CoerceRows(rows)
	if err != nil {
		return err
	}
	t.InsertPrepared(coerced)
	return nil
}

// CoerceRows validates rows against the schema and returns a coerced
// copy without storing anything. The durability layer uses the split:
// coerce first, log exactly the values that will be stored, then apply
// with InsertPrepared — so a replayed log rebuilds the table
// byte-for-byte. Each row of the copy is an allocation of its own: the
// table keeps them, and a block of rows over 32 KiB would be rounded up
// to whole 8 KiB pages (DESIGN.md §4.7).
func (t *Table) CoerceRows(rows [][]sqltypes.Value) ([][]sqltypes.Value, error) {
	coerced := make([][]sqltypes.Value, len(rows))
	for i, row := range rows {
		out, err := t.CoerceRow(make([]sqltypes.Value, 0, len(row)), row)
		if err != nil {
			return nil, err
		}
		coerced[i] = out
	}
	return coerced, nil
}

// CoerceRow appends row, validated against the schema and coerced, to
// dst: the coercion CoerceRows makes of each row.
func (t *Table) CoerceRow(dst, row []sqltypes.Value) ([]sqltypes.Value, error) {
	if len(row) != len(t.cols) {
		return nil, fmt.Errorf("table %s has %d columns but %d values were supplied", t.name, len(t.cols), len(row))
	}
	for j, v := range row {
		c, err := Coerce(v, t.types[j].Kind)
		if err != nil {
			return nil, fmt.Errorf("column %s of table %s: %v", t.cols[j], t.name, err)
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// InsertPrepared appends rows previously returned by CoerceRows (or
// replayed from a log of such rows). It cannot fail: all validation
// happened at coercion time.
func (t *Table) InsertPrepared(rows [][]sqltypes.Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j, d := range t.dict {
		if d == nil {
			continue
		}
		for _, row := range rows {
			v := &row[j]
			if v.Null {
				continue
			}
			if c, ok := d[v.S]; ok {
				v.S = c
				continue
			}
			v.S = strings.Clone(v.S)
			if len(d) < internLimit {
				d[v.S] = v.S
			}
		}
	}
	t.rows = append(t.rows, rows...)
}

// Truncate removes all rows and starts the next generation.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.gen++
	for _, d := range t.dict {
		clear(d)
	}
}

// Coerce converts v to kind where the conversion is implicit-safe
// (numeric widening, string-to-date for literals, NULL retyping): the
// value an INSERT stores, and the one a coordinator hashes to route it.
func Coerce(v sqltypes.Value, kind sqltypes.Kind) (sqltypes.Value, error) {
	if v.Null {
		return sqltypes.Null(kind), nil
	}
	if v.K == kind {
		return v, nil
	}
	switch {
	case kind == sqltypes.KindFloat && v.K == sqltypes.KindInt,
		kind == sqltypes.KindDate && v.K == sqltypes.KindString:
		return sqltypes.Cast(v, kind)
	case kind == sqltypes.KindInt && v.K == sqltypes.KindFloat:
		if f := v.F(); f == float64(int64(f)) {
			return sqltypes.NewInt(int64(f)), nil
		}
		return sqltypes.Value{}, fmt.Errorf("cannot insert non-integral %v into INTEGER column", v)
	default:
		return sqltypes.Value{}, fmt.Errorf("cannot insert %s value into %s column", v.K, kind)
	}
}
