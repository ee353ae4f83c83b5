package exec

// Context links by position (plan.RowLink). A measure reached through a
// join reads exactly the base rows its group's joined rows came from:
//
//   - a Scan with the Link reads the execution's snapshot of the link's
//     table, pinned by the first such Scan, and appends each row's
//     position in it;
//   - the outer Aggregate's POSITIONS call lists the positions each
//     group's rows carry as it folds them (posList: two appends a row, no
//     hashing; a fused join folds its joined rows without making them),
//     and emit turns a group's list into the sorted, distinct positions
//     — a NULL-padded row carries none — published under the handle the
//     call outputs;
//   - the measure's LinkRead reads the snapshot's rows at the positions
//     its handle names or, under the naive strategy, at the positions of
//     the rows its own run of the FROM tree keeps.
//
// Every Scan and LinkRead of a link in one execution reads the one
// pinned snapshot, so a position never indexes another generation's
// rows. Position sets are charged to the budget with the lists.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// linkRows is one execution's state of a plan.RowLink: the pinned
// snapshot and the position sets published so far, a set's handle being
// its index.
type linkRows struct {
	once sync.Once
	rows []Row
	mu   sync.Mutex
	sets [][]int32
}

func (rt *runtime) linkRows(l *plan.RowLink) *linkRows {
	sh := rt.sh
	sh.linkMu.Lock()
	defer sh.linkMu.Unlock()
	e := sh.links[l]
	if e == nil {
		if sh.links == nil {
			sh.links = map[*plan.RowLink]*linkRows{}
		}
		e = &linkRows{}
		sh.links[l] = e
	}
	return e
}

// pinned returns the link's snapshot, taking it on first use.
func (e *linkRows) pinned(l *plan.RowLink) []Row {
	e.once.Do(func() {
		if src, ok := l.Table.(snapshotSource); ok {
			e.rows, _ = src.Snapshot()
		} else {
			e.rows = l.Table.Rows()
		}
	})
	return e.rows
}

// scanLinked runs a Scan with a Link: the pinned snapshot's rows, each
// copied with its position appended.
func (rt *runtime) scanLinked(n *plan.Scan) ([]Row, error) {
	rows := rt.linkRows(n.Link).pinned(n.Link)
	rt.sh.scans.Add(1)
	// The rows are this execution's: no column share may keep them.
	rt.scanned = storage.State{}
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.RowsScanned, int64(len(rows)))
	}
	w := len(n.Sch.Cols)
	block := make([]sqltypes.Value, len(rows)*w)
	out := make([]Row, len(rows))
	for i, row := range rows {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		r := block[:w:w]
		block = block[w:]
		copy(r, row)
		r[w-1] = sqltypes.NewInt(int64(i))
		out[i] = r
	}
	return out, nil
}

// readLinked runs a LinkRead.
func (rt *runtime) readLinked(n *plan.LinkRead) ([]Row, error) {
	e := rt.linkRows(n.Link)
	var pos []int32
	if n.Group != nil {
		v, err := rt.evalOnce(n.Group)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		if !v.Null && v.I >= 0 && v.I < int64(len(e.sets)) {
			pos = e.sets[v.I]
		} else {
			err = fmt.Errorf("internal error: no position set %s for a context link", v.SQLLiteral())
		}
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
	} else {
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		for _, row := range in {
			if v := row[n.Col]; !v.Null {
				pos = append(pos, int32(v.I))
			}
		}
		slices.Sort(pos)
		pos = slices.Compact(pos)
	}
	rows := e.pinned(n.Link)
	out := make([]Row, len(pos))
	for i, p := range pos {
		out[i] = rows[p]
	}
	return out, nil
}

// posFold publishes the position sets of one Aggregate run's POSITIONS
// calls.
type posFold struct {
	rt *runtime
	// stride is the number of POSITIONS calls: values per list entry.
	stride int
	// marks is a bitset over the snapshot's positions, all zero between
	// groups.
	marks []uint64
	// buf holds the positions published so far; its spare capacity is
	// every row once per grouping set and call.
	buf []int32
}

// publish collects the positions acc's rows carry in c's column — its
// own list and those of the groups merged into it — sorted and
// distinct, and returns the handle it publishes them under.
func (pf *posFold) publish(c *aggCall, acc *groupAcc) sqltypes.Value {
	e := pf.rt.linkRows(c.link)
	if words := len(e.pinned(c.link))/64 + 1; len(pf.marks) < words {
		pf.marks = make([]uint64, words)
	}
	start := len(pf.buf)
	for g := acc; g != nil; g = g.more {
		for r := g.head; r != 0; r = g.pos.prev[r-1] {
			if v := g.pos.vals[int(r-1)*pf.stride+c.slot]; v >= 0 {
				pf.buf = append(pf.buf, v)
			}
		}
	}
	set := positionSet(pf.buf[start:], pf.marks)
	pf.buf = pf.buf[:start+len(set)]
	set = set[:len(set):len(set)]
	e.mu.Lock()
	h := len(e.sets)
	e.sets = append(e.sets, set)
	e.mu.Unlock()
	return sqltypes.NewInt(int64(h))
}

// positionSet sorts pos and drops repeats, in place. With more positions
// than marks has words it sorts by marking them (positions index the
// bitset, which it leaves all zero); otherwise by comparison.
func positionSet(pos []int32, marks []uint64) []int32 {
	if len(pos) <= len(marks) {
		slices.Sort(pos)
		return slices.Compact(pos)
	}
	for _, p := range pos {
		marks[p>>6] |= 1 << (p & 63)
	}
	out := pos[:0]
	for w, m := range marks {
		for m != 0 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(m)))
			m &= m - 1
		}
		marks[w] = 0
	}
	return out
}
