package main

// -compare: a pure function over two files of run records (JSON lines,
// as written by -out). Per workload and end-to-end metric it takes each
// side's median and inter-quartile spread and judges b against a with
// the bound BENCHMARK.json fixes for the metric.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the driver's spread); it needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median; 0 for
// fewer than two runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

type comparison struct {
	workload, metric, unit string
	a, b                   float64 // medians
	na, nb                 int
	ratio                  float64 // b / a
	spread                 float64 // the wider side's
	bound                  float64
	verdict                string
}

// judge places b against a. worse is the share of a by which b is worse
// (negative when better). A move beyond the bound counts only when it
// also exceeds the run-to-run spread; a spread wider than the bound
// leaves "no move" unproven too.
func judge(better string, bound, a, b, spr float64) string {
	worse := (b - a) / a
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound && worse > spr:
		return regressed
	case -worse > bound && -worse > spr:
		return improved
	case spr > bound, worse > bound, -worse > bound:
		return unresolved
	default:
		return unchanged
	}
}

// compareRuns judges every (workload, end-to-end metric) both sides
// measured, in spec and workload-name order.
func compareRuns(spec []specMetric, a, b []result) []comparison {
	collect := func(rs []result) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	ma, mb := collect(a), collect(b)
	var names []string
	for w := range ma {
		if _, ok := mb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []comparison
	for _, w := range names {
		for _, s := range spec {
			xa, xb := ma[w][s.Name], mb[w][s.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{workload: w, metric: s.Name, unit: s.Unit, a: median(xa), b: median(xb),
				na: len(xa), nb: len(xb), bound: s.Bound, spread: spread(xa)}
			if sb := spread(xb); sb > c.spread {
				c.spread = sb
			}
			c.ratio = c.b / c.a
			c.verdict = judge(s.Better, s.Bound, c.a, c.b, c.spread)
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the comparison and reports whether any pairing
// regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	cs := compareRuns(spec.EndToEnd, a, b)
	if len(cs) == 0 {
		return false, fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %-6s %18s %8s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "unit", "b/a (base a)", "spread", "bound", "verdict")
	any := false
	for _, c := range cs {
		fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %-6s %7.4f of %-8.4g %7.1f%% %6.1f%%  %s (n=%d/%d)\n",
			c.workload, c.metric, c.a, c.b, c.unit, c.ratio, c.a, 100*c.spread, 100*c.bound, c.verdict, c.na, c.nb)
		any = any || c.verdict == regressed
	}
	return any, nil
}
