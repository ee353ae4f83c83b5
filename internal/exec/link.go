package exec

// Context links by position (plan.RowLink). A measure reached through a
// join reads exactly the base rows its group's joined rows came from:
//
//   - the relation's LinkRead makes the link's rows once per execution —
//     it runs its Input once, so a Scan of a stored table takes one
//     snapshot — and returns each row copied with its position in them
//     appended;
//   - a POSITIONS call lists the positions each group's rows carry as
//     the Aggregate folds them (posList: two appends a row, no hashing; a
//     fused join folds its joined rows without making them), and emit
//     turns a group's list into the sorted, distinct positions — a
//     NULL-padded row carries none; with Sets, the union of the sets its
//     rows name — published under the handle the call outputs;
//   - the measure's LinkRead reads the link's rows at the positions of
//     the set its Group names.
//
// Every LinkRead of a link in one execution reads the one evaluation of
// its rows, so a position never indexes rows of another generation or
// of another run of a volatile plan. Position sets are charged to the
// budget with the lists.

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// linkRows is one execution's state of a plan.RowLink: its rows, made
// under once, and the position sets published so far, a set's handle
// being its index, under mu.
type linkRows struct {
	once sync.Once
	mu   sync.Mutex
	rows []Row
	err  error
	sets [][]int32
}

var errLinkUnmade = errors.New("internal error: the rows of a context link were not made")

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

// make returns l's rows, making them the first time: input's rows or,
// for a reader that makes none (input nil), a snapshot of l's Table —
// or the rows RunGathered reads in its place. The bottom is
// uncorrelated, so the frames on the stack do not matter to it, and run
// charges its rows to the budget once.
func (e *linkRows) make(rt *runtime, l *plan.RowLink, input plan.Node) ([]Row, error) {
	e.once.Do(func() {
		// Reported if the run below panics, or if nothing makes the rows.
		e.err = errLinkUnmade
		switch {
		case input != nil:
			e.rows, e.err = rt.run(input)
		case l.Table != nil:
			var ok bool
			if e.rows, ok = rt.sh.gathered[l.Table]; !ok {
				e.rows = l.Table.Rows()
			}
			e.err = nil
		}
	})
	return e.rows, e.err
}

// readLinked runs a LinkRead.
func (rt *runtime) readLinked(n *plan.LinkRead) ([]Row, error) {
	e := rt.linkRows(n.Link)
	if n.Input != nil {
		rows, err := e.make(rt, n.Link, n.Input)
		if err != nil {
			return nil, err
		}
		// The rows are this execution's: no column share may keep them.
		rt.scanned = storage.State{}
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
	v, err := rt.evalOnce(n.Group)
	if err != nil {
		return nil, err
	}
	rows, err := e.make(rt, n.Link, nil)
	if err != nil {
		return nil, err
	}
	var pos []int32
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

// publish collects the positions the rows of group g of t carry in c's
// column — its own list and its links into t's parts; with c.sets, the
// positions of the sets they name — sorted and distinct, and returns the
// handle it publishes them under.
func (pf *posFold) publish(c *aggCall, t *setTable, g int) sqltypes.Value {
	e := pf.rt.linkRows(c.link)
	rows, _ := e.make(pf.rt, c.link, nil)
	e.mu.Lock()
	defer e.mu.Unlock()
	if words := len(rows)/64 + 1; len(pf.marks) < words {
		pf.marks = make([]uint64, words)
	}
	start := len(pf.buf)
	for p, r, l := t.pos, t.head[g], t.more[g]; ; {
		for ; r != 0; r = p.prev[r-1] {
			switch v := p.vals[int(r-1)*pf.stride+c.slot]; {
			case v < 0:
			case c.sets:
				pf.buf = append(pf.buf, e.sets[v]...)
			default:
				pf.buf = append(pf.buf, v)
			}
		}
		if l == 0 {
			break
		}
		k := &t.links[l-1]
		p, r, l = t.parts[k.part], k.head, k.next
	}
	set := positionSet(pf.buf[start:], pf.marks)
	pf.buf = pf.buf[:start+len(set)]
	set = set[:len(set):len(set)]
	h := len(e.sets)
	e.sets = append(e.sets, set)
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
