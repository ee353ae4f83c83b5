package exec

import (
	"sync"

	"github.com/measures-sql/msql/internal/plan"
)

// Profile collects per-operator runtime metrics for one query, keyed by
// plan position: the node together with the subquery whose plan it is
// executing in (nil for the main plan). The binder shares one Scan of a
// measure's base table between the main plan and every expansion of the
// measure, so node identity alone would fold all those positions into
// one counter. The executor runs the exact tree the optimizer produced,
// so pointer identity is stable for the life of the query.
// It implements plan.MetricsSource, so the annotated tree can be
// rendered with plan.ExplainAnalyzeTree(root, profile).
//
// All nodes reachable from the root — including subquery plans nested in
// expressions — are pre-registered at construction, so the hot path is
// almost always a read-locked map lookup; nodes materialized later (none
// today) fall back to lazy insertion under the write lock.
type Profile struct {
	mu    sync.RWMutex
	nodes map[nodePos]*plan.OpMetrics
	subs  map[*plan.Subquery]*plan.OpMetrics
}

type nodePos struct {
	in *plan.Subquery
	n  plan.Node
}

// NewProfile creates a profile pre-registered for every operator and
// subquery expression reachable from root.
func NewProfile(root plan.Node) *Profile {
	p := &Profile{
		nodes: map[nodePos]*plan.OpMetrics{},
		subs:  map[*plan.Subquery]*plan.OpMetrics{},
	}
	p.register(nil, root)
	return p
}

func (p *Profile) register(in *plan.Subquery, n plan.Node) {
	if _, ok := p.nodes[nodePos{in, n}]; ok {
		return
	}
	p.nodes[nodePos{in, n}] = &plan.OpMetrics{}
	plan.VisitNodeExprs(n, func(e plan.Expr) {
		plan.WalkExprs(e, func(x plan.Expr) {
			if sq, ok := x.(*plan.Subquery); ok {
				if _, ok := p.subs[sq]; !ok {
					p.subs[sq] = &plan.OpMetrics{}
					p.register(sq, sq.Plan)
				}
			}
		})
	})
	for _, c := range n.Children() {
		p.register(in, c)
	}
}

// NodeMetrics implements plan.MetricsSource.
func (p *Profile) NodeMetrics(in *plan.Subquery, n plan.Node) *plan.OpMetrics {
	k := nodePos{in, n}
	p.mu.RLock()
	m, ok := p.nodes[k]
	p.mu.RUnlock()
	if ok {
		return m
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.nodes[k]; ok {
		return m
	}
	m = &plan.OpMetrics{}
	p.nodes[k] = m
	return m
}

// SubqueryMetrics implements plan.MetricsSource.
func (p *Profile) SubqueryMetrics(sq *plan.Subquery) *plan.OpMetrics {
	p.mu.RLock()
	m, ok := p.subs[sq]
	p.mu.RUnlock()
	if ok {
		return m
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.subs[sq]; ok {
		return m
	}
	m = &plan.OpMetrics{}
	p.subs[sq] = m
	return m
}
