package main

import (
	"fmt"
	"math"
	"sort"
)

// The metric catalogue. BENCHMARK.json carries the same names with the
// regression bounds; benchmark_test.go keeps the two in step.

type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p95_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"heap_mb_loaded", "MiB", "lower"},
	{"heap_mb_end", "MiB", "lower"},
}

// perLayer is reported by the traced run; layer = Go package. A metric
// that does not apply to a workload (wal.* without a data dir, dist.*
// on one server) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.self_us_per_op", "us", "lower"},
		{"client.retries", "count", "lower"},
	}
	for _, c := range classes {
		defs = append(defs, metricDef{"client.p50_ms." + c, "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"client.p95_ms.insert_batch", "ms", "lower"},
		{"server.handler_us_per_op", "us", "lower"},
		{"server.self_us_per_op", "us", "lower"},
		{"server.admitted", "count", "higher"},
		{"server.shed", "count", "lower"},
		{"wire.encode_us_per_op", "us", "lower"},
		{"wire.request_bytes_per_op", "B", "lower"},
		{"wire.response_bytes_per_op", "B", "lower"},
		{"parser.parse_us_per_op", "us", "lower"},
		{"parser.sql_bytes_per_op", "B", "lower"},
		{"binder.bind_us_per_op", "us", "lower"},
		{"core.expansions_per_op", "count", "lower"},
		{"optimizer.optimize_us_per_op", "us", "lower"},
		{"optimizer.winmagic_rewrites_per_op", "count", "higher"},
		{"optimizer.pushdowns_per_op", "count", "higher"},
		{"exec.run_us_per_op", "us", "lower"},
		{"exec.replay_us_per_op", "us", "lower"},
		{"exec.run_vec_us_per_op", "us", "lower"},
		{"exec.rows_scanned_per_op", "count", "lower"},
		{"exec.rows_scanned_per_row_out", "count", "lower"},
		{"exec.subquery_evals_per_op", "count", "lower"},
		{"exec.context_memo_hit_ratio", "ratio", "higher"},
		{"exec.vec_fallback_ratio", "ratio", "lower"},
		{"storage.scan_ns_per_row", "ns", "lower"},
		{"storage.insert_ns_per_row", "ns", "lower"},
		{"storage.heap_bytes_per_row", "B", "lower"},
		{"vec.transpose_ns_per_row", "ns", "lower"},
		{"engine.plan_cache_hit_ratio", "ratio", "higher"},
		{"engine.result_memo_hit_ratio", "ratio", "higher"},
		{"engine.plan_cache_invalidations", "count", "lower"},
		{"engine.plan_cache_evictions", "count", "lower"},
		{"rollup.hit_ratio", "ratio", "higher"},
		{"rollup.builds", "count", "lower"},
		{"rollup.rebuilds", "count", "lower"},
		{"rollup.incremental_rows", "count", "lower"},
		{"rollup.groups", "count", "lower"},
		{"wal.append_us_per_record", "us", "lower"},
		{"wal.bytes_per_user_byte", "ratio", "lower"},
		{"wal.fsyncs_per_append", "ratio", "lower"},
		{"wal.checkpoint_ms", "ms", "lower"},
		{"wal.recovery_ms", "ms", "lower"},
		{"wal.recovered_records", "count", "lower"},
		{"dist.self_us_per_op", "us", "lower"},
		{"dist.shard_calls_per_op", "count", "lower"},
		{"dist.shard_wait_us_per_op", "us", "lower"},
		{"dist.shard_response_bytes_per_op", "B", "lower"},
		{"dist.retries", "count", "lower"},
		{"dist.hedges", "count", "lower"},
		{"dist.failovers", "count", "lower"},
		{"trace.overhead_ratio", "ratio", "higher"},
	}...)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report assembles values for defs, failing on a name it was not given
// or was given but does not know: the output is exactly the catalogue.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
