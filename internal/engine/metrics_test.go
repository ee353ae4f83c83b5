package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/rollup"
)

// histOf returns the snapshot of a histogram that observed ns.
func histOf(ns ...int64) exec.HistogramSnapshot {
	var h exec.Histogram
	for _, v := range ns {
		h.Observe(v)
	}
	return h.Snapshot()
}

// goldenSnapshot is a fully populated snapshot: every section is
// present, two strategies ran, and both histograms have observations,
// so every series the exposition can emit is emitted.
func goldenSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Queries: 101, Errors: 7, Canceled: 2, Timeouts: 1, LimitTrips: 3,
		RowsReturned: 5000, RowsScanned: 120000, SubqueryEvals: 30, CacheHits: 90,
		CacheHitRatio: 0.75, ParallelFanouts: 4, VecBatches: 250,
		VecKernelRows: 64000, VecFallbackRows: 12,
		PlanNs: 3_500_000, ExecNs: 42_000_000,
		PlanLatency: histOf(15_000, 40_000, 40_000, 2_000_000),
		ExecLatency: histOf(1_000_000, 3_000_000, 38_000_000),
		ByStrategy: map[string]stratCounters{
			"memo":  {Queries: 60, Errors: 1, PlanNs: 1_500_000, ExecNs: 12_500_000},
			"naive": {Queries: 41, Errors: 6, PlanNs: 2_000_000, ExecNs: 29_500_000},
		},
		PlanCache: &PlanCacheCounters{Hits: 80, Misses: 21, Evictions: 5,
			Invalidations: 9, Bypasses: 2, MemoHits: 33, Entries: 16},
		Server: &ServerCounters{Inflight: 3, Queued: 1, Accepted: 140, Admitted: 130,
			Shed: 6, Rejected: 4, Drained: 2, DrainKilled: 1, Panics: 0, DrainNs: 250_000_000},
		Storage: &StorageCounters{WALAppends: 77, WALAppendBytes: 81920, WALFsyncs: 40,
			WALBytes: 65536, WALSeq: 77, WALDurableSeq: 75, Checkpoints: 3,
			CheckpointNs: 9_000_000, LastCheckpointNs: 2_500_000, RecoveryNs: 1_250_000,
			RecoveredRecords: 12, TornTailBytes: 17, SyncPolicy: "group"},
		Shards: &ShardCounters{Scatters: 300, Retries: 8, Hedges: 5, Failovers: 3,
			BreakerOpens: 2, ShardErrors: 1, ShardsTotal: 2, BreakersOpen: 1},
		Rollups: &rollup.Counters{Hits: 70, Misses: 30, Builds: 6, Rebuilds: 4,
			IncrementalRows: 800, Invalidations: 2, Nodes: 5, Groups: 44, DirtyGroups: 3},
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// promFamilies splits an exposition into family blocks keyed by metric
// name; a block runs from a "# HELP" line to the line before the next.
func promFamilies(t *testing.T, text string) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			name = strings.Fields(line)[2]
			if _, dup := blocks[name]; dup {
				t.Fatalf("family %s emitted twice", name)
			}
		} else if name == "" && line != "" {
			t.Fatalf("sample before the first # HELP: %q", line)
		}
		blocks[name] += line
	}
	return blocks
}

// TestMetricsExpositionGolden pins every rendering of one fully
// populated snapshot: the JSON byte for byte, the msql_stats.metrics
// names and values, and each Prometheus family block byte for byte
// (families are compared as a set, so only their order may move).
func TestMetricsExpositionGolden(t *testing.T) {
	snap := goldenSnapshot()
	if got, want := snap.JSON()+"\n", readGolden(t, "metrics.json"); got != want {
		t.Errorf("JSON differs from testdata/metrics.json:\n%s", got)
	}

	flat := flattenMetrics(snap)
	names := make([]string, 0, len(flat))
	for k := range flat {
		names = append(names, k)
	}
	sort.Strings(names)
	var fb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&fb, "%s %g\n", k, flat[k])
	}
	if got, want := fb.String(), readGolden(t, "metrics.flat"); got != want {
		t.Errorf("flattened metrics differ from testdata/metrics.flat:\n%s", got)
	}

	got := promFamilies(t, snap.Prometheus())
	want := promFamilies(t, readGolden(t, "metrics.prom"))
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("family %s missing", name)
		} else if g != w {
			t.Errorf("family %s differs:\n--- got\n%s--- want\n%s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected family %s", name)
		}
	}
	if len(want) != 66 {
		t.Errorf("golden has %d families, want 66", len(want))
	}
}

// TestMetricDeclarations walks the snapshot and every section type it
// reaches, so a counter cannot silently miss /metrics: each numeric or
// histogram field is declared as a series or listed as JSON-only, and
// the declarations follow the exposition's naming rules.
func TestMetricDeclarations(t *testing.T) {
	jsonOnly := map[string]bool{"MetricsSnapshot.PlanNs": true, "MetricsSnapshot.ExecNs": true}
	validName := regexp.MustCompile(`^msql_[a-z0-9_]+$`)
	histT := reflect.TypeOf(exec.HistogramSnapshot{})
	seen := map[string]string{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			id := st.Name() + "." + f.Name
			switch {
			case f.Type.Kind() == reflect.Pointer:
				walk(f.Type.Elem())
				continue
			case f.Type.Kind() == reflect.Map:
				if f.Tag.Get("label") == "" {
					t.Errorf("%s: map field without a label tag", id)
				}
				walk(f.Type.Elem())
				continue
			case f.Type.Kind() != reflect.Int64 && f.Type.Kind() != reflect.Float64 && f.Type != histT:
				continue
			}
			d, ok := seriesOf(f)
			if !ok {
				if !jsonOnly[id] {
					t.Errorf("%s: neither prom-tagged nor JSON-only", id)
				}
				continue
			}
			if jsonOnly[id] {
				t.Errorf("%s: listed JSON-only but declares %s", id, d.name)
			}
			if prev, dup := seen[d.name]; dup {
				t.Errorf("%s: series %s already declared by %s", id, d.name, prev)
			}
			seen[d.name] = id
			if !validName.MatchString(d.name) {
				t.Errorf("%s: series name %q", id, d.name)
			}
			switch {
			case f.Type == histT && d.kind != "histogram",
				f.Type != histT && d.kind != "counter" && d.kind != "gauge":
				t.Errorf("%s: kind %q", id, d.kind)
			}
			if (d.kind == "counter") != strings.HasSuffix(d.name, "_total") {
				t.Errorf("%s: %s %s: counters, and only counters, end in _total", id, d.kind, d.name)
			}
			if d.seconds != strings.Contains(d.name, "_seconds") {
				t.Errorf("%s: seconds unit and a _seconds name go together (%s)", id, d.name)
			}
			if d.help == "" {
				t.Errorf("%s: empty help", id)
			}
		}
	}
	walk(reflect.TypeOf(MetricsSnapshot{}))
	if len(seen) != 66 {
		t.Errorf("%d series declared, want 66", len(seen))
	}
}
