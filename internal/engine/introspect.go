// Queryable introspection: the msql_stats.* virtual tables expose the
// statement-stats store, the live-query registry, the metrics registry,
// and the plan cache as read-only relations, so the engine's own SQL
// surface (including measures) works over its operational state:
//
//	SELECT fingerprint, calls, p99_exec_ms
//	FROM msql_stats.statements ORDER BY p99_exec_ms DESC;
//
// The providers read only their own stores' locks — never the session
// mutex — so a statement scanning msql_stats.* cannot deadlock against
// the statement machinery that is running it.
package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// taggedTracer decorates every span with fixed correlation attributes
// (request_id, query_id). Span-provided attributes win on collision.
type taggedTracer struct {
	t     exec.Tracer
	attrs map[string]string
}

func (tt *taggedTracer) Span(sp exec.Span) {
	merged := make(map[string]string, len(sp.Attrs)+len(tt.attrs))
	for k, v := range tt.attrs {
		merged[k] = v
	}
	for k, v := range sp.Attrs {
		merged[k] = v
	}
	sp.Attrs = merged
	tt.t.Span(sp)
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// registerSystemTables installs the msql_stats.* virtual tables into
// the session catalog. Called once from New; registration errors are
// impossible by construction (fixed names, matched column lists).
func (s *Session) registerSystemTables() {
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	floatT := sqltypes.Type{Kind: sqltypes.KindFloat}
	strT := sqltypes.Type{Kind: sqltypes.KindString}

	mustRegister := func(t *catalog.VirtualTable) {
		if err := s.cat.RegisterVirtual(t); err != nil {
			panic(fmt.Sprintf("registerSystemTables: %v", err))
		}
	}

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.statements",
		Cols: []string{
			"fingerprint", "calls", "errors", "rows_returned", "cache_hits", "memo_hits",
			"p50_plan_ms", "p99_plan_ms", "p50_exec_ms", "p95_exec_ms", "p99_exec_ms",
			"total_exec_ms",
		},
		Types: []sqltypes.Type{
			strT, intT, intT, intT, intT, intT,
			floatT, floatT, floatT, floatT, floatT,
			floatT,
		},
		Provider: func() [][]sqltypes.Value {
			stats := s.stmts.snapshot()
			rows := make([][]sqltypes.Value, 0, len(stats))
			for _, st := range stats {
				rows = append(rows, []sqltypes.Value{
					sqltypes.NewString(st.Fingerprint),
					sqltypes.NewInt(st.Calls),
					sqltypes.NewInt(st.Errors),
					sqltypes.NewInt(st.Rows),
					sqltypes.NewInt(st.CacheHits),
					sqltypes.NewInt(st.MemoHits),
					sqltypes.NewFloat(nsToMs(st.Plan.P50Ns)),
					sqltypes.NewFloat(nsToMs(st.Plan.P99Ns)),
					sqltypes.NewFloat(nsToMs(st.Exec.P50Ns)),
					sqltypes.NewFloat(nsToMs(st.Exec.P95Ns)),
					sqltypes.NewFloat(nsToMs(st.Exec.P99Ns)),
					sqltypes.NewFloat(nsToMs(st.Exec.SumNs)),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.active_queries",
		Cols: []string{
			"query_id", "source", "phase", "sql", "request_id", "strategy",
			"elapsed_ms", "started",
		},
		Types: []sqltypes.Type{
			intT, strT, strT, strT, strT, strT,
			floatT, strT,
		},
		Provider: func() [][]sqltypes.Value {
			live := s.queries.snapshot()
			rows := make([][]sqltypes.Value, 0, len(live))
			for _, q := range live {
				rows = append(rows, []sqltypes.Value{
					sqltypes.NewInt(q.ID),
					sqltypes.NewString(q.Source),
					sqltypes.NewString(q.Phase),
					sqltypes.NewString(q.SQL),
					sqltypes.NewString(q.RequestID),
					sqltypes.NewString(q.Strategy),
					sqltypes.NewFloat(q.ElapsedMs),
					sqltypes.NewString(q.Started.UTC().Format(time.RFC3339Nano)),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.metrics",
		Cols:      []string{"name", "value"},
		Types:     []sqltypes.Type{strT, floatT},
		Provider: func() [][]sqltypes.Value {
			flat := flattenMetrics(s.MetricsSnapshot())
			names := make([]string, 0, len(flat))
			for k := range flat {
				names = append(names, k)
			}
			sort.Strings(names)
			rows := make([][]sqltypes.Value, 0, len(names))
			for _, k := range names {
				rows = append(rows, []sqltypes.Value{
					sqltypes.NewString(k), sqltypes.NewFloat(flat[k]),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.storage",
		Cols: []string{
			"sync_policy", "wal_appends", "wal_append_bytes", "wal_fsyncs",
			"wal_bytes", "wal_seq", "wal_durable_seq", "checkpoints",
			"checkpoint_ms", "last_checkpoint_ms", "recovery_ms",
			"recovered_records", "torn_tail_bytes",
		},
		Types: []sqltypes.Type{
			strT, intT, intT, intT,
			intT, intT, intT, intT,
			floatT, floatT, floatT,
			intT, intT,
		},
		Provider: func() [][]sqltypes.Value {
			if s.dur == nil {
				return nil // in-memory session: no durability state to report
			}
			sc := storageCounters(s.dur.wal)
			return [][]sqltypes.Value{{
				sqltypes.NewString(sc.SyncPolicy),
				sqltypes.NewInt(sc.WALAppends),
				sqltypes.NewInt(sc.WALAppendBytes),
				sqltypes.NewInt(sc.WALFsyncs),
				sqltypes.NewInt(sc.WALBytes),
				sqltypes.NewInt(sc.WALSeq),
				sqltypes.NewInt(sc.WALDurableSeq),
				sqltypes.NewInt(sc.Checkpoints),
				sqltypes.NewFloat(nsToMs(sc.CheckpointNs)),
				sqltypes.NewFloat(nsToMs(sc.LastCheckpointNs)),
				sqltypes.NewFloat(nsToMs(sc.RecoveryNs)),
				sqltypes.NewInt(sc.RecoveredRecords),
				sqltypes.NewInt(sc.TornTailBytes),
			}}
		},
	})

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.rollups",
		Cols: []string{
			"table_name", "keys", "aggs", "groups", "rows_seen", "disabled",
		},
		Types: []sqltypes.Type{strT, strT, strT, intT, intT, intT},
		Provider: func() [][]sqltypes.Value {
			l := s.rollups.Load()
			if l == nil {
				return nil // rollups disabled: no lattice to report
			}
			infos := l.Snapshot()
			rows := make([][]sqltypes.Value, 0, len(infos))
			for _, ni := range infos {
				disabled := int64(0)
				if ni.Disabled {
					disabled = 1
				}
				rows = append(rows, []sqltypes.Value{
					sqltypes.NewString(ni.Table),
					sqltypes.NewString(ni.Keys),
					sqltypes.NewString(ni.Aggs),
					sqltypes.NewInt(int64(ni.Groups)),
					sqltypes.NewInt(int64(ni.RowsSeen)),
					sqltypes.NewInt(disabled),
				})
			}
			return rows
		},
	})

	mustRegister(&catalog.VirtualTable{
		TableName: "msql_stats.plan_cache",
		Cols: []string{
			"hits", "misses", "evictions", "invalidations", "bypasses",
			"memo_hits", "entries",
		},
		Types: []sqltypes.Type{intT, intT, intT, intT, intT, intT, intT},
		Provider: func() [][]sqltypes.Value {
			pc := s.plans.counters()
			return [][]sqltypes.Value{{
				sqltypes.NewInt(pc.Hits),
				sqltypes.NewInt(pc.Misses),
				sqltypes.NewInt(pc.Evictions),
				sqltypes.NewInt(pc.Invalidations),
				sqltypes.NewInt(pc.Bypasses),
				sqltypes.NewInt(pc.MemoHits),
				sqltypes.NewInt(pc.Entries),
			}}
		},
	})
}

// flattenMetrics turns the nested metrics snapshot into dotted
// name→value pairs (by_strategy.memo.queries, plan_cache.hits, ...) by
// round-tripping through its JSON form, so new snapshot fields appear
// in msql_stats.metrics without further wiring.
func flattenMetrics(snap MetricsSnapshot) map[string]float64 {
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil
	}
	out := map[string]float64{}
	flattenJSON("", tree, out)
	return out
}

func flattenJSON(prefix string, v any, out map[string]float64) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenJSON(key, child, out)
		}
	case float64:
		out[prefix] = v
	case bool:
		if v {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}
