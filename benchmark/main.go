// Command benchmark is the repository's benchmark: it drives the path a
// real request takes — msql/client over loopback TCP to internal/server
// (and, for the fleet, through an internal/dist coordinator to two
// shard servers) down to the executor and storage — all in one process,
// under a closed loop of two clients replaying seeded operation
// sequences. See README.md in this directory.
//
//	benchmark --workload adhoc_measures --seed 1 --seconds 20 --trace 0
//	benchmark                         # every workload, untraced then traced
//	benchmark -quick                  # the same on a tiny dataset
//	benchmark -compare a.jsonl b.jsonl
//
// The last line of standard output of a --workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(res *result) {
	e := res.Env
	fmt.Printf("# %s seed=%d trace=%d  nproc=%d GOMAXPROCS=%d %s rev=%s\n",
		res.Workload, res.Seed, res.Trace, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Revision)
	fmt.Printf("# %s; load: closed loop, %d clients, %d connections\n", e.Note, numClients, numClients)
	classes := make([]string, 0, len(res.Samples))
	for c := range res.Samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("# samples:")
	for _, c := range classes {
		fmt.Printf(" %s=%d", c, res.Samples[c])
	}
	fmt.Printf("\n# attempted_ops=%d failed_ops=%d\n", res.Attempted, res.Failed)
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("%-36s %16.4f %s\n", d.name, m.Value, m.Unit)
	}
}

// appendRecord adds res as one JSON line to path.
func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed for the dataset and the operation sequences")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "tiny dataset, fixed op count instead of -seconds")
		out     = flag.String("out", "", "append each run's record to this JSON-lines file")
		work    = flag.String("workdir", ".bench_build/run", "directory for the durable store and trace.json")
		compare = flag.Bool("compare", false, "compare two result files: -compare [-spec BENCHMARK.json] a.jsonl b.jsonl")
		spec    = flag.String("spec", "BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare [-spec BENCHMARK.json] a.jsonl b.jsonl")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	type job struct {
		w     *workload
		trace bool
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		jobs = append(jobs, job{w, *trace == 1})
	}

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	failed := false
	var last *result
	for _, j := range jobs {
		scratch, err := os.MkdirTemp(*work, "run-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res, err := runWorkload(context.Background(), options{
			workload: j.w, seed: *seed, seconds: *seconds, trace: j.trace, quick: *quick,
			scratch: scratch, log: os.Stderr,
		})
		if err == nil && j.trace {
			// Keep the newest trace of each workload next to the run dirs.
			err = os.Rename(filepath.Join(scratch, "trace.json"), filepath.Join(*work, "trace-"+j.w.name+".json"))
		}
		if rerr := os.RemoveAll(scratch); err == nil {
			err = rerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", j.w.name, err)
			return 2
		}
		printResult(res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
		failed = failed || !res.Correct
		last = res
	}
	if *name != "" {
		line, err := json.Marshal(driverLine{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	if failed {
		return 1
	}
	return 0
}
