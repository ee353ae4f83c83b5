package main

// Correctness inside the run. The oracle is the same engine opened
// in-process with every cache the served path may use switched off: no
// rollup lattice, no plan cache, and text queries only (which never
// enter the result memo). It fixes the expected checksum of every
// distinct read statement; one statement per measure class is further
// checked against its db.Expand'ed, measure-free form.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
)

// checksum digests a wire-form result independent of row order (the
// parallel executor and the coordinator's merge may order ties
// differently): the sum of per-row FNV-1a hashes, mixed with the row
// count. Numbers hash by their float64 value because that is how they
// come off the JSON wire.
func checksum(rows [][]any) uint64 {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		h := fnv.New64a()
		for _, v := range row {
			buf = buf[:0]
			switch v := v.(type) {
			case nil:
				buf = append(buf, 'N')
			case bool:
				buf = strconv.AppendBool(append(buf, 'b'), v)
			case int64:
				buf = strconv.AppendFloat(append(buf, 'n'), float64(v), 'g', -1, 64)
			case float64:
				buf = strconv.AppendFloat(append(buf, 'n'), v, 'g', -1, 64)
			case string:
				buf = append(append(buf, 's'), v...)
			default:
				buf = append(buf, fmt.Sprintf("?%T:%v", v, v)...)
			}
			buf = append(buf, 0)
			h.Write(buf)
		}
		sum += h.Sum64()
	}
	return sum*31 + uint64(len(rows))
}

// oracle is the reference database for one workload at one seed.
type oracle struct {
	db *msql.DB
}

func newOracle(seed int64, orders int) (*oracle, error) {
	db := msql.Open()
	db.SetPlanCacheSize(0)
	ds := dataset(seed, orders)
	if err := db.Exec(datagen.SetupSQL); err != nil {
		return nil, err
	}
	if err := db.InsertRows("Customers", ds.Customers); err != nil {
		return nil, err
	}
	if err := db.InsertRows("Orders", ds.Orders); err != nil {
		return nil, err
	}
	if err := db.Exec(viewSQL); err != nil {
		return nil, err
	}
	return &oracle{db: db}, nil
}

func (o *oracle) sum(sql string) (uint64, error) {
	res, err := o.db.Query(sql)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	return checksum(wire.EncodeRows(res.Rows)), nil
}

// apply mirrors an acknowledged insert batch.
func (o *oracle) apply(op *op) error {
	return o.db.InsertRows("Orders", op.rows)
}

// expected computes the checksum of every distinct read statement in
// seqs, one goroutine per client sequence, and checks the first
// statement of each measure shape against its expansion to plain SQL.
func (o *oracle) expected(seqs [][]op) (map[string]uint64, error) {
	var mu sync.Mutex
	want := map[string]uint64{}
	expanded := map[string]bool{}
	// claim reports whether the caller is the first to see key in m.
	claim := func(m map[string]bool, key string) bool {
		mu.Lock()
		defer mu.Unlock()
		if m[key] {
			return false
		}
		m[key] = true
		return true
	}
	claimed := map[string]bool{}
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range seqs[c] {
				p := &seqs[c][i]
				if !p.isRead() || !claim(claimed, p.sql) {
					continue
				}
				s, err := o.sum(p.sql)
				if err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				want[p.sql] = s
				mu.Unlock()
				if p.expand == "" || !claim(expanded, p.expand) {
					continue
				}
				plain, err := o.db.Expand(p.sql)
				if err != nil {
					errs[c] = fmt.Errorf("expand %s: %w", p.expand, err)
					return
				}
				es, err := o.sum(plain)
				if err != nil {
					errs[c] = fmt.Errorf("expanded %s: %w", p.expand, err)
					return
				}
				if es != s {
					errs[c] = fmt.Errorf("%s: measure query and its expansion disagree:\n%s\n-- expands to --\n%s", p.expand, p.sql, plain)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

// expectedChecksums builds a fresh oracle and runs expected on it.
func expectedChecksums(seed int64, orders int, seqs [][]op) (map[string]uint64, error) {
	o, err := newOracle(seed, orders)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o.expected(seqs)
}
