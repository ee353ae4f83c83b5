package main

import (
	"math"
	"testing"
)

func runs(workload, metric string, values ...float64) []result {
	var out []result
	for _, v := range values {
		out = append(out, result{Workload: workload, Metrics: map[string]metricValue{metric: {Value: v, Unit: "ms"}}})
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		better          string
		bound, a, b, sp float64
		want            string
	}{
		{"lower", 0.10, 100, 104, 0.02, unchanged},
		{"lower", 0.10, 100, 115, 0.02, regressed},
		{"lower", 0.10, 100, 85, 0.02, improved},
		{"higher", 0.10, 100, 85, 0.02, regressed},
		{"higher", 0.10, 100, 115, 0.02, improved},
		// Spread wider than the bound: "no move" is not proven.
		{"lower", 0.10, 100, 104, 0.15, unresolved},
		// A move beyond the bound but inside the spread is not proven either.
		{"lower", 0.10, 100, 113, 0.15, unresolved},
		// A move beyond both is.
		{"lower", 0.10, 100, 140, 0.15, regressed},
	}
	for _, c := range cases {
		if got := judge(c.better, c.bound, c.a, c.b, c.sp); got != c.want {
			t.Errorf("judge(%s, bound %v, %v -> %v, spread %v) = %s, want %s", c.better, c.bound, c.a, c.b, c.sp, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	spec := []specMetric{{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	a := append(runs("w1", "lat_p50_ms", 10, 10.1, 9.9, 10.2, 9.8), runs("w2", "lat_p50_ms", 5)...)
	b := append(runs("w1", "lat_p50_ms", 12, 12.1, 11.9, 12.2, 11.8), runs("w2", "lat_p50_ms", 5.1)...)
	// A traced record and a workload only one side ran are ignored.
	a = append(a, result{Workload: "w1", Trace: 1, Metrics: map[string]metricValue{"lat_p50_ms": {Value: 99}}})
	b = append(b, runs("w3", "lat_p50_ms", 1)...)

	cs := compareRuns(spec, a, b)
	if len(cs) != 2 {
		t.Fatalf("%d comparisons, want 2: %+v", len(cs), cs)
	}
	w1, w2 := cs[0], cs[1]
	if w1.workload != "w1" || w1.a != 10 || w1.b != 12 || math.Abs(w1.ratio-1.2) > 1e-9 || w1.verdict != regressed {
		t.Errorf("w1: %+v", w1)
	}
	if w1.na != 5 || w1.nb != 5 || w1.spread <= 0 || w1.spread > 0.05 {
		t.Errorf("w1 spread/counts: %+v", w1)
	}
	if w2.workload != "w2" || w2.verdict != unchanged || w2.spread != 0 {
		t.Errorf("w2: %+v", w2)
	}
}
