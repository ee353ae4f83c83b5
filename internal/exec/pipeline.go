package exec

import (
	"sync"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
	"github.com/measures-sql/msql/internal/vec"
)

// Pipeline carries the reusable compiled artifacts of one cached plan:
// the compiled expressions of its operators — closures for the row
// executor, vecExpr trees for the vectorized one — keyed by plan-node
// identity (node pointers are stable for a plan held in a plan cache),
// plus pooled batch and aggregate scratch. Compiled expressions are
// stateless and shared across worker goroutines, so a single Pipeline may
// serve concurrent executions of its plan; the cache is filled lazily
// under a lock, each operator's program on its first execution, and
// read-mostly afterwards. All of that is derived from the plan and lives
// as long as it; the column shares are derived from table rows and follow
// storage.State.
type Pipeline struct {
	progs progCache

	mu     sync.RWMutex
	shares map[plan.Node]*colShare

	batches sync.Pool // *vecBatch
	scratch sync.Pool // *aggScratch
}

// NewPipeline returns an empty pipeline for one plan.
func NewPipeline() *Pipeline {
	return &Pipeline{shares: map[plan.Node]*colShare{}}
}

// Programs reports how many compiled operator programs, subquery
// partitions and rollup analyses the pipeline holds; the number stops
// growing once every operator of the plan has run.
func (p *Pipeline) Programs() int {
	p.progs.mu.RLock()
	defer p.progs.mu.RUnlock()
	return len(p.progs.row) + len(p.progs.vec) + len(p.progs.rollups)
}

// colShare caches columnarized base-table batches across executions of
// a cached plan: the row→column conversion, the dominant per-batch
// cost, is done once per data state of the scanned table. at is the
// state the scan's rows were snapshotted in; executions whose scan
// snapshot is in the Same state see the same rows at the same offsets.
// Cached columns are read-only by the same contract that lets compiled
// vecExpr trees be shared across worker goroutines.
type colShare struct {
	at   storage.State
	mu   sync.Mutex
	cols map[colKey]*vec.Col
}

// colKey addresses one cached column: the batch's row offset within the
// scan output plus the column index.
type colKey struct{ off, idx int }

func (s *colShare) get(off, idx, n int) *vec.Col {
	s.mu.Lock()
	c := s.cols[colKey{off, idx}]
	s.mu.Unlock()
	if c != nil && c.Len() == n {
		return c
	}
	return nil
}

func (s *colShare) put(off, idx int, c *vec.Col) {
	s.mu.Lock()
	s.cols[colKey{off, idx}] = c
	s.mu.Unlock()
}

// shareFor returns the column share of scan node n for rows snapshotted
// in state at, replacing a share of another state: executions still on
// the old rows keep the share they hold.
func (p *Pipeline) shareFor(n plan.Node, at storage.State) *colShare {
	p.mu.RLock()
	s := p.shares[n]
	p.mu.RUnlock()
	if s != nil && at.Same(s.at) {
		return s
	}
	p.mu.Lock()
	if s = p.shares[n]; s == nil || !at.Same(s.at) {
		s = &colShare{at: at, cols: map[colKey]*vec.Col{}}
		p.shares[n] = s
	}
	p.mu.Unlock()
	return s
}

func (p *Pipeline) getBatch(rows []Row, kinds []sqltypes.Kind) *vecBatch {
	if vb, _ := p.batches.Get().(*vecBatch); vb != nil && cap(vb.cols) >= len(kinds) {
		vb.rows, vb.kinds = rows, kinds
		vb.cols = vb.cols[:len(kinds)]
		for i := range vb.cols {
			vb.cols[i] = nil
		}
		vb.kernelRows, vb.fallbackRows = 0, 0
		return vb
	}
	return newVecBatch(rows, kinds)
}

func (p *Pipeline) putBatch(vb *vecBatch) {
	vb.rows = nil
	vb.share, vb.off = nil, 0
	p.batches.Put(vb)
}

// getBatch/putBatch on the runtime route through the pipeline's pool
// when one is attached; otherwise batches are allocated per use, which
// is the one-shot (uncached) execution path.
func (rt *runtime) getBatch(rows []Row, kinds []sqltypes.Kind) *vecBatch {
	if p := rt.sh.settings.Pipeline; p != nil {
		return p.getBatch(rows, kinds)
	}
	return newVecBatch(rows, kinds)
}

// scanShare returns the column share for an operator whose input rows
// this runtime has just read by running input, or nil when no pipeline
// is attached or input is not a Scan.
func (rt *runtime) scanShare(input plan.Node) *colShare {
	if p := rt.sh.settings.Pipeline; p != nil {
		if _, ok := input.(*plan.Scan); ok {
			return p.shareFor(input, rt.scanned)
		}
	}
	return nil
}

// getBatchShared is getBatch plus column sharing: with a share, the
// batch reuses (and the first time fills) its cached columns for the
// scan rows at this offset.
func (rt *runtime) getBatchShared(share *colShare, off int, rows []Row, kinds []sqltypes.Kind) *vecBatch {
	vb := rt.getBatch(rows, kinds)
	vb.share, vb.off = share, off
	return vb
}

func (rt *runtime) putBatch(vb *vecBatch) {
	if p := rt.sh.settings.Pipeline; p != nil {
		p.putBatch(vb)
	}
}

// vecFilter and friends return the operator's compiled vecExpr trees.
func (rt *runtime) vecFilter(n *plan.Filter, width int) vecExpr {
	return rt.vecProg(n, func() any { return vecCompile(n.Pred, width) }).(vecExpr)
}

func (rt *runtime) vecProject(n *plan.Project, width int) []vecExpr {
	return rt.vecProg(n, func() any {
		ves := make([]vecExpr, len(n.Exprs))
		for j, ne := range n.Exprs {
			ves[j] = vecCompile(ne.Expr, width)
		}
		return ves
	}).([]vecExpr)
}

func (rt *runtime) vecAgg(env *aggEnv, inSchema *plan.Schema) *vecAggExprs {
	return rt.vecProg(env.n, func() any { return compileVecAgg(env, inSchema) }).(*vecAggExprs)
}

// aggScratch is the per-accumulate-call scratch of the vectorized
// aggregate path; its shape depends on the Aggregate node, so a pooled
// instance is reused only when the shape matches.
type aggScratch struct {
	kv         []sqltypes.Value
	argBufs    [][]sqltypes.Value
	filterCols []*vec.Col
	argCols    [][]*vec.Col
	groupCols  []*vec.Col
}

func newAggScratch(n *plan.Aggregate) *aggScratch {
	s := &aggScratch{
		kv:         make([]sqltypes.Value, len(n.GroupExprs)),
		argBufs:    make([][]sqltypes.Value, len(n.Aggs)),
		filterCols: make([]*vec.Col, len(n.Aggs)),
		argCols:    make([][]*vec.Col, len(n.Aggs)),
		groupCols:  make([]*vec.Col, len(n.GroupExprs)),
	}
	for i, call := range n.Aggs {
		s.argBufs[i] = make([]sqltypes.Value, len(call.Args))
		s.argCols[i] = make([]*vec.Col, len(call.Args))
	}
	return s
}

func (s *aggScratch) shapeMatches(n *plan.Aggregate) bool {
	if len(s.groupCols) != len(n.GroupExprs) || len(s.argBufs) != len(n.Aggs) {
		return false
	}
	for i, call := range n.Aggs {
		if len(s.argBufs[i]) != len(call.Args) {
			return false
		}
	}
	return true
}

func (rt *runtime) getAggScratch(n *plan.Aggregate) *aggScratch {
	if p := rt.sh.settings.Pipeline; p != nil {
		if s, _ := p.scratch.Get().(*aggScratch); s != nil && s.shapeMatches(n) {
			return s
		}
	}
	return newAggScratch(n)
}

func (rt *runtime) putAggScratch(s *aggScratch) {
	if p := rt.sh.settings.Pipeline; p != nil {
		for i := range s.groupCols {
			s.groupCols[i] = nil
		}
		for i := range s.filterCols {
			s.filterCols[i] = nil
		}
		for i := range s.argCols {
			for j := range s.argCols[i] {
				s.argCols[i][j] = nil
			}
		}
		p.scratch.Put(s)
	}
}
