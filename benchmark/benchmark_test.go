package main

import (
	"context"
	"io"
	"reflect"
	"regexp"
	"testing"
)

// exactCounts are the per-layer metrics that come from the
// single-threaded staged replay and must repeat exactly for one seed.
var exactCounts = []string{
	"parser.sql_bytes_per_op",
	"core.expansions_per_op",
	"optimizer.winmagic_rewrites_per_op",
	"optimizer.pushdowns_per_op",
	"exec.rows_scanned_per_op",
	"exec.rows_scanned_per_row_out",
	"exec.subquery_evals_per_op",
	"exec.context_memo_hit_ratio",
	"exec.vec_fallback_ratio",
	"wal.bytes_per_user_byte",
}

func quickRun(t *testing.T, w *workload, seed int64, trace bool) *result {
	t.Helper()
	res, err := runWorkload(context.Background(), options{
		workload: w, seed: seed, trace: trace, quick: true, scratch: t.TempDir(), log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s seed=%d trace=%v: %v", w.name, seed, trace, err)
	}
	return res
}

// checkEmitted asserts res carries exactly the metrics of spec, with
// the spec's units.
func checkEmitted(t *testing.T, res *result, spec []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(spec) {
		t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d", res.Workload, res.Trace, len(res.Metrics), len(spec))
	}
	for _, s := range spec {
		m, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s trace=%d: metric %s of BENCHMARK.json not emitted", res.Workload, res.Trace, s.Name)
			continue
		}
		if m.Unit != s.Unit {
			t.Errorf("%s: unit %q emitted, BENCHMARK.json says %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// TestQuickRun runs every workload on the tiny dataset, untraced and
// traced, and holds the output to BENCHMARK.json.
func TestQuickRun(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, s := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(s.Name) {
			t.Errorf("metric name %q breaks the naming rule", s.Name)
		}
	}

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e2e := quickRun(t, w, 1, false)
			checkEmitted(t, e2e, spec.EndToEnd)
			for n, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
			first := quickRun(t, w, 1, true)
			again := quickRun(t, w, 1, true)
			checkEmitted(t, first, spec.PerLayer)
			for _, r := range []*result{e2e, first, again} {
				if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
					t.Errorf("trace=%d: attempted %d, failed %d, correct %v", r.Trace, r.Attempted, r.Failed, r.Correct)
				}
			}
			for _, n := range exactCounts {
				if a, b := first.Metrics[n].Value, again.Metrics[n].Value; a != b {
					t.Errorf("%s: %v then %v with the same seed, want an exact repeat", n, a, b)
				}
			}
			if first.Metrics["exec.rows_scanned_per_op"].Value == 0 && !w.rollups {
				t.Errorf("exec.rows_scanned_per_op is 0 without a lattice to answer from")
			}
		})
	}
}

// TestSequencesSeeded: one seed, one sequence; another seed, another.
func TestSequencesSeeded(t *testing.T) {
	texts := func(seqs [][]op) [][]string {
		out := make([][]string, len(seqs))
		for c, seq := range seqs {
			for _, p := range seq {
				out[c] = append(out[c], p.sql)
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b := texts(sequences(w, 1, true)), texts(sequences(w, 1, true))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations at seed 1 differ", w.name)
		}
		if c := texts(sequences(w, 2, true)); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same sequences", w.name)
		}
	}
}
