// Package vec provides the columnar batch representation used by the
// vectorized execution path: typed column vectors with null bitmaps,
// processed ~1024 rows at a time through tight kernel loops instead of
// the row-at-a-time tree-walking interpreter (MonetDB/X100 style).
//
// The representation is exactness-first: the row engine is the oracle
// the vectorized engine is differentially tested against, so a column
// must round-trip every sqltypes.Value bit-for-bit — including NULLs of
// KindUnknown (a bare NULL literal) versus typed NULLs, which downstream
// arithmetic treats differently. Columns therefore carry an escape
// hatch: when a stored value does not fit the column's static kind
// exactly, the whole column silently promotes to a boxed representation
// that preserves the original Values verbatim.
package vec

import "github.com/measures-sql/msql/internal/sqltypes"

// BatchRows is the number of rows processed per batch. 1024 keeps a
// batch's working set (a few columns of 8-byte values plus bitmaps)
// comfortably inside L1/L2 while amortizing per-batch overhead.
const BatchRows = 1024

// Bitmap is a fixed-size bitmap; bit i set means row i is NULL.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap covering n rows.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Col is a column vector of a fixed length. Exactly one backing store is
// active: a typed slice (selected by Kind, with Nulls marking NULL rows)
// or, after promotion, the boxed slice which holds exact Values.
type Col struct {
	// Kind is the column's static kind. For a typed column every value
	// boxed out of it has this kind; a boxed column may hold any mix.
	Kind  sqltypes.Kind
	Nulls Bitmap
	B     []bool
	I     []int64 // ints and dates (days since epoch)
	F     []float64
	S     []string
	boxed []sqltypes.Value
	n     int
}

// NewCol returns a column of n rows with the given static kind. A kind
// without a typed representation (KindUnknown) starts out boxed.
func NewCol(kind sqltypes.Kind, n int) *Col {
	c := &Col{Kind: kind, n: n}
	switch kind {
	case sqltypes.KindBool:
		c.B = make([]bool, n)
	case sqltypes.KindInt, sqltypes.KindDate:
		c.I = make([]int64, n)
	case sqltypes.KindFloat:
		c.F = make([]float64, n)
	case sqltypes.KindString:
		c.S = make([]string, n)
	default:
		c.boxed = make([]sqltypes.Value, n)
		return c
	}
	c.Nulls = NewBitmap(n)
	return c
}

// Len returns the number of rows.
func (c *Col) Len() int { return c.n }

// Boxed reports whether the column has fallen back to the exact boxed
// representation; kernels require typed columns and must not run on one.
func (c *Col) Boxed() bool { return c.boxed != nil }

// Null reports whether row i is NULL.
func (c *Col) Null(i int) bool {
	if c.boxed != nil {
		return c.boxed[i].Null
	}
	return c.Nulls.Get(i)
}

// SetNull marks row i NULL. On a boxed column the stored value is a NULL
// of the column's kind, matching what a strict kernel would produce.
func (c *Col) SetNull(i int) {
	if c.boxed != nil {
		c.boxed[i] = sqltypes.Null(c.Kind)
		return
	}
	c.Nulls.Set(i)
}

// Value boxes row i back to a sqltypes.Value. For a typed column the
// result has the column kind; for a boxed column it is the stored Value
// verbatim.
func (c *Col) Value(i int) sqltypes.Value {
	if c.boxed != nil {
		return c.boxed[i]
	}
	if c.Nulls.Get(i) {
		return sqltypes.Null(c.Kind)
	}
	switch c.Kind {
	case sqltypes.KindBool:
		return sqltypes.NewBool(c.B[i])
	case sqltypes.KindInt:
		return sqltypes.NewInt(c.I[i])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(c.F[i])
	case sqltypes.KindString:
		return sqltypes.NewString(c.S[i])
	default: // KindDate
		return sqltypes.NewDateDays(c.I[i])
	}
}

// fits reports whether v can be stored in the typed representation
// without losing exactness. NULLs only fit when Null(c.Kind) reproduces
// them — a bare NULL literal (KindUnknown) never fits a typed column.
func (c *Col) fits(v sqltypes.Value) bool { return v.K == c.Kind }

// Set stores v at row i exactly, promoting the column to the boxed
// representation if v does not fit the typed one.
func (c *Col) Set(i int, v sqltypes.Value) {
	if c.boxed == nil && !c.fits(v) {
		c.promote()
	}
	if c.boxed != nil {
		c.boxed[i] = v
		return
	}
	if v.Null {
		c.Nulls.Set(i)
		return
	}
	switch c.Kind {
	case sqltypes.KindBool:
		c.B[i] = v.B
	case sqltypes.KindInt, sqltypes.KindDate:
		c.I[i] = v.I
	case sqltypes.KindFloat:
		c.F[i] = v.F()
	case sqltypes.KindString:
		c.S[i] = v.S
	}
}

// promote switches the column to the boxed representation, boxing the
// rows already stored. Slots never written box to the kind's zero value,
// which is harmless: callers only read rows they wrote.
func (c *Col) promote() {
	boxed := make([]sqltypes.Value, c.n)
	for i := 0; i < c.n; i++ {
		boxed[i] = c.Value(i)
	}
	c.boxed = boxed
	c.Nulls, c.B, c.I, c.F, c.S = nil, nil, nil, nil, nil
}

// BuildCol builds a column from column idx of rows, using kind as the
// typed layout. The first value that does not fit exactly promotes the
// column; the boxed result then preserves every Value verbatim.
func BuildCol(rows [][]sqltypes.Value, idx int, kind sqltypes.Kind) *Col {
	c := NewCol(kind, len(rows))
	if c.boxed != nil {
		for r, row := range rows {
			c.boxed[r] = row[idx]
		}
		return c
	}
	for r, row := range rows {
		v := row[idx]
		if !c.fits(v) {
			// Slow path: box everything from here on (promote copies
			// the prefix already stored).
			c.promote()
			for r2 := r; r2 < len(rows); r2++ {
				c.boxed[r2] = rows[r2][idx]
			}
			return c
		}
		if v.Null {
			c.Nulls.Set(r)
			continue
		}
		switch kind {
		case sqltypes.KindBool:
			c.B[r] = v.B
		case sqltypes.KindInt, sqltypes.KindDate:
			c.I[r] = v.I
		case sqltypes.KindFloat:
			c.F[r] = v.F()
		case sqltypes.KindString:
			c.S[r] = v.S
		}
	}
	return c
}

// Batch is a horizontal slice of a relation in columnar form: up to
// BatchRows rows, one Col per referenced column (entries may be nil when
// a column was never touched), and an optional selection vector listing
// the live row indices.
type Batch struct {
	N    int
	Cols []*Col
	Sel  []int // nil means all N rows are live
}

// FromRows converts rows (all the same width as kinds) into a fully
// materialized batch. Mostly a testing convenience: the executor builds
// columns lazily, one per referenced input column.
func FromRows(rows [][]sqltypes.Value, kinds []sqltypes.Kind) *Batch {
	b := &Batch{N: len(rows), Cols: make([]*Col, len(kinds))}
	for i, k := range kinds {
		b.Cols[i] = BuildCol(rows, i, k)
	}
	return b
}

// Row boxes row i of the batch back to a value slice.
func (b *Batch) Row(i int) []sqltypes.Value {
	row := make([]sqltypes.Value, len(b.Cols))
	for j, c := range b.Cols {
		row[j] = c.Value(i)
	}
	return row
}
