package main

// The load generator: a closed loop of numClients goroutines, one
// connection each. A client sends its next operation only when the
// previous one has been answered and checked.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/measures-sql/msql/msql/client"
)

// sample is one completed operation.
type sample struct {
	class string
	ns    int64
	// at is when the operation completed, in ns since its phase began.
	at int64
	ok bool
}

// phase is one stretch of load: the samples, the wall time, and the
// process-wide allocation deltas across it.
type phase struct {
	samples    []sample
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	firstErr   error
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// throughputWindows is how many equal windows a timed phase is cut into.
const throughputWindows = 10

// throughput cuts a phase planned to last length into equal windows,
// drops the two slowest and the two fastest, and returns the mean
// operations per second of the rest: a stall (a collection, a slow
// fsync, a neighbour on the host) costs one window, not the result. A
// phase bounded by op count (length 0) reports its plain mean.
func (p *phase) throughput(length time.Duration) float64 {
	if length <= 0 {
		return float64(len(p.samples)) / p.wall.Seconds()
	}
	window := int64(length) / throughputWindows
	counts := make([]float64, throughputWindows)
	for _, s := range p.samples {
		if k := s.at / window; k < throughputWindows {
			counts[k]++
		}
	}
	sort.Float64s(counts)
	kept := counts[2 : throughputWindows-2]
	sum := 0.0
	for _, c := range kept {
		sum += c
	}
	return sum / float64(len(kept)) / (float64(window) / 1e9)
}

// latenciesMs returns the sorted latencies of class ("" = all) in ms.
func (p *phase) latenciesMs(class string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if class == "" || s.class == class {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

type runner struct {
	fx   *fixture
	seqs [][]op
	// want holds the expected checksum per read statement, valid while
	// no insert has been acknowledged.
	want map[string]uint64
	tr   *tracer // nil when untraced
	// acked lists, per client, the sequence positions of acknowledged
	// insert batches in order, so the oracle can mirror them.
	acked [numClients][]int
	// checkpoint, when set, runs after every checkpointEvery-th
	// acknowledged batch, concurrently with the load.
	checkpoint func() error
}

// limit bounds a phase: by deadline, by op count per client, or both.
type limit struct {
	until time.Time // zero = none
	ops   int       // 0 = none
	// readsOnly skips inserts (the warm pass must not mutate).
	readsOnly bool
	// exact compares every read with its expected checksum; otherwise
	// reads are checked for shape only (inserts are in flight).
	exact bool
}

func (r *runner) do(ctx context.Context, c int, p *op, reqID string) (*client.Result, error) {
	var opts []client.QueryOption
	if reqID != "" {
		opts = append(opts, client.WithRequestID(reqID))
	}
	if p.kind == opPrepared {
		param, err := client.ParamOf(p.arg)
		if err != nil {
			return nil, err
		}
		return r.fx.stmts[c][p.tile].ExecParams(ctx, []client.Param{param}, opts...)
	}
	return r.fx.clients[c].Query(ctx, p.sql, opts...)
}

// verify reports whether res is a correct answer to p.
func (r *runner) verify(p *op, res *client.Result, exact bool) error {
	if !p.isRead() {
		return nil
	}
	if len(res.Columns) == 0 {
		return fmt.Errorf("%s: result has no columns", p.class)
	}
	if !exact {
		return nil
	}
	want, ok := r.want[p.sql]
	if !ok {
		return fmt.Errorf("%s: no expected checksum for %q", p.class, p.sql)
	}
	if got := checksum(res.Rows); got != want {
		return fmt.Errorf("%s: checksum %x, want %x: %s", p.class, got, want, p.sql)
	}
	return nil
}

// run drives every client through its sequence from position 0,
// cyclically, until lim is reached.
func (r *runner) run(ctx context.Context, tag string, lim limit) *phase {
	results := make([]*phase, numClients)
	// One checkpoint runs at a time, concurrently with the load; a
	// request arriving while one is pending coalesces with it.
	ckptReq := make(chan struct{}, 1)
	ckptDone := make(chan error, 1)
	go func() {
		var first error
		for range ckptReq {
			if err := r.checkpoint(); err != nil && first == nil {
				first = err
			}
		}
		ckptDone <- first
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ph := &phase{}
			results[c] = ph
			seq := r.seqs[c]
			done, sent := 0, 0
			for i := 0; ; i++ {
				if lim.ops > 0 && done >= lim.ops {
					break
				}
				if !lim.until.IsZero() && !time.Now().Before(lim.until) {
					break
				}
				if ctx.Err() != nil {
					break
				}
				if lim.readsOnly && i >= len(seq) {
					break
				}
				pos := i % len(seq)
				p := &seq[pos]
				if lim.readsOnly && !p.isRead() {
					continue
				}
				if p.kind == opInsert && r.fx.w.insertEvery > 0 {
					// A paced feed: batch k is due k intervals into the phase
					// and is sent then, or at once if the client is running late.
					due := start.Add(time.Duration(sent) * r.fx.w.insertEvery)
					if !lim.until.IsZero() && due.After(lim.until) {
						break
					}
					time.Sleep(time.Until(due))
					sent++
				}
				reqID := ""
				if r.tr != nil {
					reqID = fmt.Sprintf("%s-c%d-%06d", tag, c, i)
				}
				t0 := time.Now()
				res, err := r.do(ctx, c, p, reqID)
				d := time.Since(t0)
				if r.tr != nil {
					r.tr.record(span{Req: reqID, Name: spanClient, Class: p.class, Node: c,
						StartNs: int64(t0.Sub(r.tr.t0)), DurNs: int64(d)})
				}
				if err == nil {
					err = r.verify(p, res, lim.exact)
				}
				if err != nil && ph.firstErr == nil {
					ph.firstErr = err
				}
				ph.samples = append(ph.samples, sample{class: p.class, ns: int64(d), at: int64(time.Since(start)), ok: err == nil})
				done++
				if p.kind == opInsert && err == nil {
					r.acked[c] = append(r.acked[c], pos)
					if r.checkpoint != nil && len(r.acked[c])%checkpointEvery == 0 {
						select {
						case ckptReq <- struct{}{}:
						default:
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	close(ckptReq)
	ckptErr := <-ckptDone

	out := &phase{wall: wall, mallocs: after.Mallocs - before.Mallocs, allocBytes: after.TotalAlloc - before.TotalAlloc}
	for _, ph := range results {
		out.samples = append(out.samples, ph.samples...)
		if out.firstErr == nil {
			out.firstErr = ph.firstErr
		}
	}
	if out.firstErr == nil && ckptErr != nil {
		out.firstErr = fmt.Errorf("checkpoint: %w", ckptErr)
	}
	return out
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
