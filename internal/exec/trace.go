package exec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/plan"
)

// Span is one structured event in a query's lifecycle: a phase (parse,
// bind, expand, optimize, execute, operator), what happened, how long it
// took, and phase-specific attributes.
type Span struct {
	// Phase is the lifecycle stage: "parse", "bind", "expand",
	// "optimize", "execute", or "operator".
	Phase string `json:"phase"`
	// Name identifies the event within the phase: the expanded measure,
	// the rewrite that fired, the operator that ran.
	Name string `json:"name"`
	// DurNs is the event duration in nanoseconds (0 when the event is a
	// point fact rather than a timed interval).
	DurNs int64 `json:"dur_ns"`
	// Attrs carries phase-specific detail, e.g. context="ALL prodName"
	// on an expand span or rows="97" on an operator span.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer receives lifecycle span events. Implementations must be safe
// for concurrent use; the engine emits spans from the query goroutine
// but tests may share one tracer across sessions.
type Tracer interface {
	Span(Span)
}

// TextTracer renders each span as one aligned text line.
type TextTracer struct {
	W  io.Writer
	mu sync.Mutex
}

// Span implements Tracer.
func (t *TextTracer) Span(s Span) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-40s", s.Phase, s.Name)
	if s.DurNs > 0 {
		fmt.Fprintf(&sb, " %12s", time.Duration(s.DurNs))
	}
	for _, k := range sortedAttrKeys(s.Attrs) {
		fmt.Fprintf(&sb, " %s=%s", k, s.Attrs[k])
	}
	sb.WriteByte('\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	io.WriteString(t.W, sb.String())
}

// JSONTracer renders each span as one JSON object per line.
type JSONTracer struct {
	W  io.Writer
	mu sync.Mutex
}

// Span implements Tracer.
func (t *JSONTracer) Span(s Span) {
	b, err := json.Marshal(s)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.W.Write(append(b, '\n'))
}

// SpanCollector buffers spans for inspection in tests.
type SpanCollector struct {
	mu    sync.Mutex
	spans []Span
}

// Span implements Tracer.
func (c *SpanCollector) Span(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, s)
}

// Spans returns a copy of the collected spans.
func (c *SpanCollector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// ByPhase returns the collected spans with the given phase.
func (c *SpanCollector) ByPhase(phase string) []Span {
	var out []Span
	for _, s := range c.Spans() {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

func sortedAttrKeys(attrs map[string]string) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PlanSpans emits one "operator" span per profiled plan node, in
// EXPLAIN order (pre-order, subquery plans before children), so a
// tracer sees per-operator execution detail after the query finishes.
func PlanSpans(root plan.Node, prof *Profile, t Tracer) {
	if prof == nil || t == nil {
		return
	}
	var walk func(in *plan.Subquery, n plan.Node)
	walk = func(in *plan.Subquery, n plan.Node) {
		m := prof.NodeMetrics(in, n).Load()
		attrs := map[string]string{"rows": fmt.Sprintf("%d", m.RowsOut)}
		if m.Calls > 1 {
			attrs["loops"] = fmt.Sprintf("%d", m.Calls)
		}
		if m.MaxWorkers > 1 {
			attrs["workers"] = fmt.Sprintf("%d", m.MaxWorkers)
		}
		t.Span(Span{Phase: "operator", Name: n.Explain(), DurNs: m.WallNs, Attrs: attrs})
		plan.VisitNodeExprs(n, func(e plan.Expr) {
			plan.WalkExprs(e, func(x plan.Expr) {
				if sq, ok := x.(*plan.Subquery); ok {
					sm := prof.SubqueryMetrics(sq).Load()
					label := sq.Label
					if label == "" {
						label = sq.String()
					}
					attrs := map[string]string{
						"evals": fmt.Sprintf("%d", sm.Evals),
						"hits":  fmt.Sprintf("%d", sm.CacheHits),
					}
					if sm.Partitions > 0 {
						attrs["partitioned"] = fmt.Sprintf("%d", sm.Partitions)
					}
					t.Span(Span{Phase: "operator", Name: "[" + label + "]", Attrs: attrs})
					walk(sq, sq.Plan)
				}
			})
		})
		for _, c := range n.Children() {
			walk(in, c)
		}
	}
	walk(nil, root)
}
