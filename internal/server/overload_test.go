package server_test

// E24: the overload experiment. Sweep offered load (concurrent
// closed-loop clients) against a server with max-inflight 4 and a
// bounded queue, and observe the admission-control signature:
//
//   - latency of ADMITTED requests stays bounded by queue-wait +
//     service time no matter the offered load (no collapse), because
//     excess work is shed at the door rather than queued;
//   - the shed rate is ~zero below capacity and grows with load.
//
// This is the load-shedding half of the robustness story; the chaos
// soak covers the fault-injection half. EXPERIMENTS.md E24 records a
// reference run of this test's table.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

func TestOverloadSweepE24(t *testing.T) {
	db := testDB(t)
	// ~1ms per operator => listing3 takes a few ms.
	exec.SetFailPoint(exec.FailOperator, func() error { time.Sleep(time.Millisecond); return nil })
	t.Cleanup(exec.ClearFailPoints)

	const (
		queueWait = 25 * time.Millisecond
		window    = 400 * time.Millisecond
	)
	srv, ts := startServer(t, db, server.Config{
		MaxInflight: 4,
		MaxQueue:    4,
		QueueWait:   queueWait,
		MaxTimeout:  time.Second,
	})

	type point struct {
		offered  int
		ok, shed int64
		p50, p95 time.Duration
	}
	var sweep []point

	for _, offered := range []int{2, 8, 32} {
		before := srv.Counters()
		var (
			wg   sync.WaitGroup
			ok   atomic.Int64
			shed atomic.Int64
			mu   sync.Mutex
		)
		var latencies []time.Duration
		stop := make(chan struct{})
		for i := 0; i < offered; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Attempts: 1 — measure raw server behavior, not retries.
				c := client.New(ts.URL, client.WithBackoff(client.Backoff{
					Attempts: 1, Base: time.Millisecond, Max: time.Millisecond, Seed: int64(i + 1),
				}))
				for {
					select {
					case <-stop:
						return
					default:
					}
					start := time.Now()
					_, err := c.Query(context.Background(), listing3)
					el := time.Since(start)
					switch {
					case err == nil:
						ok.Add(1)
						mu.Lock()
						latencies = append(latencies, el)
						mu.Unlock()
					case errors.Is(err, msql.ErrResourceExhausted):
						shed.Add(1)
					default:
						t.Errorf("offered=%d: unexpected error: %v", offered, err)
						return
					}
				}
			}(i)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()

		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		pct := func(p float64) time.Duration {
			if len(latencies) == 0 {
				return 0
			}
			i := int(p * float64(len(latencies)-1))
			return latencies[i]
		}
		after := srv.Counters()
		pt := point{offered: offered, ok: ok.Load(), shed: shed.Load(), p50: pct(0.50), p95: pct(0.95)}
		sweep = append(sweep, pt)
		t.Logf("offered=%2d clients: ok=%4d shed=%4d (server shed %d) p50=%v p95=%v throughput=%.0f/s",
			pt.offered, pt.ok, pt.shed, after.Shed-before.Shed, pt.p50, pt.p95,
			float64(pt.ok)/window.Seconds())
	}

	under, over := sweep[0], sweep[len(sweep)-1]
	if under.ok == 0 || over.ok == 0 {
		t.Fatalf("no successes at some load point: %+v", sweep)
	}
	if over.shed == 0 {
		t.Fatalf("8x-over-capacity load produced zero sheds; admission control absent")
	}
	// The admitted-latency bound: a request waits at most queueWait for a
	// slot, then runs. Allow generous headroom for scheduler noise, but a
	// collapse (latency ~ offered load) must fail this.
	bound := queueWait + 200*time.Millisecond
	if over.p95 > bound {
		t.Fatalf("p95 at %d clients = %v, above the shed-bounded %v — latency grows with offered load",
			over.offered, over.p95, bound)
	}
}
