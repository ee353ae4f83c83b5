package wal

import (
	"fmt"
	"strings"
)

// fold is the tests' reference for what a record does to a store: the
// crash tests fold the acknowledged records into an oracle, and fold
// what Open hands back (the snapshot plus its Log) to compare with it.
// The engine applies recovered records with its own apply function; this
// fold only has to agree with it on tables, views, rows and the version.
func (d *StoreDump) fold(rec *Record) error {
	table := func(name string) int {
		for i := range d.Tables {
			if strings.EqualFold(d.Tables[i].Name, name) {
				return i
			}
		}
		return -1
	}
	view := func(name string) int {
		for i := range d.Views {
			if strings.EqualFold(d.Views[i].Name, name) {
				return i
			}
		}
		return -1
	}
	switch rec.Type {
	case RecCreateTable, RecCreateView:
		t, v := table(rec.Name), view(rec.Name)
		if (t >= 0 || v >= 0) && !rec.OrReplace {
			return fmt.Errorf("fold %s %s: already exists", rec.Type, rec.Name)
		}
		if t >= 0 {
			d.Tables = append(d.Tables[:t], d.Tables[t+1:]...)
		}
		if v >= 0 {
			d.Views = append(d.Views[:v], d.Views[v+1:]...)
		}
		if rec.Type == RecCreateTable {
			d.Tables = append(d.Tables, TableDump{Name: rec.Name, Cols: rec.Cols, Types: rec.Types})
		} else {
			d.Views = append(d.Views, ViewDump{Name: rec.Name, SQL: rec.SQL})
		}
	case RecDrop:
		if i := table(rec.Name); rec.Kind == "TABLE" && i >= 0 {
			d.Tables = append(d.Tables[:i], d.Tables[i+1:]...)
		} else if i := view(rec.Name); rec.Kind == "VIEW" && i >= 0 {
			d.Views = append(d.Views[:i], d.Views[i+1:]...)
		} else {
			return fmt.Errorf("fold DROP %s %s: does not exist", rec.Kind, rec.Name)
		}
	case RecInsert, RecTruncate:
		i := table(rec.Name)
		if i < 0 {
			return fmt.Errorf("fold %s %s: table does not exist", rec.Type, rec.Name)
		}
		t := &d.Tables[i]
		if rec.Type == RecTruncate {
			t.Rows = nil
			break
		}
		for _, row := range rec.Rows {
			if len(row) != len(t.Cols) {
				return fmt.Errorf("fold INSERT into %s: row width %d != %d columns", rec.Name, len(row), len(t.Cols))
			}
		}
		t.Rows = append(t.Rows, rec.Rows...)
	default:
		return fmt.Errorf("fold: unknown record type %d", rec.Type)
	}
	d.Version++
	return nil
}

// folded folds d's Log into d and returns it without one: the store the
// recovered session holds.
func folded(d *StoreDump) (*StoreDump, error) {
	for _, rec := range d.Log {
		if err := d.fold(rec); err != nil {
			return nil, fmt.Errorf("record seq %d: %w", rec.Seq, err)
		}
	}
	d.Log = nil
	return d, nil
}
