package main

// One benchmark run: set-up (repeated, median reported), the timed
// closed-loop phase, the fixed-point correctness checks, and — in a
// traced run — the span-recording phase and the staged replay.

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/msql"
)

type options struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	// quick runs a tiny dataset for a fixed op count instead of a
	// duration (the go test smoke run).
	quick bool
	// scratch holds the durable store and trace.json; it must exist.
	scratch string
	log     io.Writer
}

const (
	// setupReps set-ups are timed per untraced run; the last one serves.
	setupReps = 3
	// quickOps is the per-client op count of a -quick phase.
	quickOps = 25
	// verifyReads is the per-client number of reads re-checked against
	// the oracle at each fixed point of a mutating workload.
	verifyReads = 18
)

// result is one run's record: the driver line plus what -compare and
// the reader need to place it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts the measured phase's operations per class.
	Samples map[string]int `json:"samples"`
	Env     environment    `json:"env"`
}

type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision"`
	Note       string `json:"note"`
}

// counters is a snapshot of every public counter the per-layer metrics
// difference across the traced phase, summed over the serving nodes.
type counters struct {
	plan            engine.PlanCacheCounters
	rollup          msql.RollupStats
	wal             msql.WALStats
	execNs, planNs  int64
	admitted, shed  int64
	retries, hedges int64
	failovers       int64
}

func snapshot(fx *fixture) counters {
	var c counters
	for _, n := range fx.nodes {
		pc := n.db.PlanCacheStats()
		c.plan.Hits += pc.Hits
		c.plan.Misses += pc.Misses
		c.plan.MemoHits += pc.MemoHits
		c.plan.Invalidations += pc.Invalidations
		c.plan.Evictions += pc.Evictions
		rs := n.db.RollupStats()
		c.rollup.Hits += rs.Hits
		c.rollup.Misses += rs.Misses
		c.rollup.Builds += rs.Builds
		c.rollup.Rebuilds += rs.Rebuilds
		c.rollup.IncrementalRows += rs.IncrementalRows
		c.rollup.Groups += rs.Groups
		ws := n.db.WALStats()
		c.wal.Appends += ws.Appends
		c.wal.Fsyncs += ws.Fsyncs
		c.wal.Checkpoints += ws.Checkpoints
		c.wal.CheckpointNs += ws.CheckpointNs
		m := n.db.Metrics()
		c.execNs += m.ExecNs
		c.planNs += m.PlanNs
		sc := n.srv.Counters()
		c.admitted += sc.Admitted
		c.shed += sc.Shed
	}
	if fx.coord != nil {
		if sh := fx.coord.Local().Metrics().Shards; sh != nil {
			c.retries, c.hedges, c.failovers = sh.Retries, sh.Hedges, sh.Failovers
		}
	}
	return c
}

// fixedPoint is one read statement with the checksum the oracle gives
// it once every acknowledged insert has been mirrored.
type fixedPoint struct {
	client int
	op     *op
	want   uint64
}

// fixedPoints picks the first verifyReads distinct reads of each client
// sequence and computes their checksums on an oracle that mirrors every
// acknowledged insert batch.
func fixedPoints(r *runner, seed int64, orders int) ([]fixedPoint, error) {
	o, err := newOracle(seed, orders)
	if err != nil {
		return nil, err
	}
	for c, positions := range r.acked {
		for _, pos := range positions {
			if err := o.apply(&r.seqs[c][pos]); err != nil {
				return nil, err
			}
		}
	}
	var points []fixedPoint
	seen := map[string]bool{}
	for c, seq := range r.seqs {
		reads := 0
		for i := range seq {
			p := &seq[i]
			if !p.isRead() || seen[p.sql] {
				continue
			}
			if reads == verifyReads {
				break
			}
			reads++
			seen[p.sql] = true
			want, err := o.sum(p.sql)
			if err != nil {
				return nil, err
			}
			points = append(points, fixedPoint{client: c, op: p, want: want})
		}
	}
	return points, nil
}

// checkFixedPoints re-runs the fixed points through the clients and
// returns how many disagree with the oracle, and the first disagreement.
func checkFixedPoints(ctx context.Context, fx *fixture, points []fixedPoint) (failed int, first error) {
	for _, fp := range points {
		res, err := fx.clients[fp.client].Query(ctx, fp.op.sql)
		if err == nil {
			if got := checksum(res.Rows); got != fp.want {
				err = fmt.Errorf("%s: checksum %x, want %x: %s", fp.op.class, got, fp.want, fp.op.sql)
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// ackedRows is the number of rows in acknowledged insert batches.
func ackedRows(r *runner) int {
	n := 0
	for c, positions := range r.acked {
		for _, pos := range positions {
			n += len(r.seqs[c][pos].rows)
		}
	}
	return n
}

func runWorkload(ctx context.Context, opt options) (*result, error) {
	w := opt.workload
	orders, warm, prefix, reps := w.orders, w.warmReads, replayPrefix, setupReps
	if opt.quick {
		orders, warm, prefix = w.quickOrders, w.quickWarmReads, quickReplayPrefix
	}
	if opt.quick || opt.trace {
		reps = 1
	}
	logf := func(format string, args ...any) { fmt.Fprintf(opt.log, format+"\n", args...) }

	seqs := sequences(w, opt.seed, opt.quick)
	// The oracle is dropped once the checksums are known: the reference
	// copy of the data must not count towards heap_mb_*.
	want, err := expectedChecksums(opt.seed, orders, seqs)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: opt.seed, Samples: map[string]int{}, Env: env()}
	note := func(ph *phase, what string) {
		res.Attempted += len(ph.samples)
		res.Failed += ph.failed()
		if ph.firstErr != nil {
			logf("%s: %v", what, ph.firstErr)
		}
	}

	// Set-up, reps times; the last deployment serves the run.
	var fx *fixture
	var r *runner
	var setups []float64
	for i := 0; i < reps; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		fx, err = deploy(ctx, w, opt.seed, orders, filepath.Join(opt.scratch, "data"))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r = &runner{fx: fx, seqs: seqs, want: want}
		ph := r.run(ctx, "warm", limit{ops: warm, readsOnly: true, exact: true})
		setups = append(setups, time.Since(start).Seconds())
		note(ph, "warm pass")
	}
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	if w.durable {
		r.checkpoint = func() error { return fx.nodes[0].db.Checkpoint() }
	}
	heapLoaded := heapMB()

	// length is a timed phase's planned duration; 0 in -quick, where op
	// counts bound the phases.
	length := func(seconds float64) time.Duration {
		if opt.quick {
			return 0
		}
		return time.Duration(seconds * float64(time.Second))
	}
	lim := func(seconds float64) limit {
		l := limit{exact: !w.mutating()}
		if opt.quick {
			l.ops = quickOps
		} else {
			l.until = time.Now().Add(length(seconds))
		}
		return l
	}
	values := map[string]float64{}

	var measured *phase
	var tr *tracer
	var before, after counters
	var untraced *phase
	if !opt.trace {
		measured = r.run(ctx, "run", lim(opt.seconds))
		note(measured, "timed phase")
	} else {
		// Half the time untraced, as the throughput base for the
		// overhead ratio; then the traced phase from position 0 again.
		untraced = r.run(ctx, "base", lim(opt.seconds/2))
		note(untraced, "untraced phase")
		tr = newTracer()
		r.tr = tr
		tr.install(fx)
		before = snapshot(fx)
		measured = r.run(ctx, "t", lim(opt.seconds/2))
		after = snapshot(fx)
		uninstall(fx)
		r.tr = nil
		note(measured, "traced phase")
	}
	heapEnd := heapMB()
	for _, s := range measured.samples {
		res.Samples[s.class]++
	}

	// Fixed points of the mutating workloads: after the load, and after
	// close + reopen.
	var recovery time.Duration
	var recovered msql.WALStats
	if w.mutating() {
		points, err := fixedPoints(r, opt.seed, orders)
		if err != nil {
			return nil, fmt.Errorf("fixed points: %w", err)
		}
		check := func(when string) {
			failed, first := checkFixedPoints(ctx, fx, points)
			res.Attempted, res.Failed = res.Attempted+len(points), res.Failed+failed
			if first != nil {
				logf("fixed point %s: %v", when, first)
			}
		}
		check("after load")
		if w.durable {
			if recovery, err = fx.restart(); err != nil {
				return nil, fmt.Errorf("recovery: %w", err)
			}
			recovered = fx.nodes[0].db.WALStats()
			res.Attempted++
			wantRows := float64(orders + ackedRows(r))
			cnt, err := fx.clients[0].Query(ctx, "SELECT COUNT(*) AS n FROM Orders")
			if err != nil || len(cnt.Rows) != 1 || cnt.Rows[0][0] != wantRows {
				res.Failed++
				logf("after recovery: row count %v (err %v), want %v acknowledged", cnt, err, wantRows)
			}
			check("after recovery")
		}
	}

	n := float64(len(measured.samples))
	if n == 0 {
		return nil, fmt.Errorf("%s: the measured phase completed no operation", w.name)
	}
	if !opt.trace {
		all := measured.latenciesMs("")
		values["setup_s"] = median(setups)
		values["throughput_ops_s"] = measured.throughput(length(opt.seconds))
		values["lat_p50_ms"] = quantile(all, 0.50)
		values["lat_p95_ms"] = quantile(all, 0.95)
		values["allocs_per_op"] = float64(measured.mallocs) / n
		values["alloc_kb_per_op"] = float64(measured.allocBytes) / 1024 / n
		values["heap_mb_loaded"] = heapLoaded
		values["heap_mb_end"] = heapEnd
		res.Metrics, err = report(endToEnd, values)
	} else {
		rs, rerr := stagedReplay(ctx, w, opt.seed, orders, seqs, prefix, opt.scratch)
		if rerr != nil {
			return nil, rerr
		}
		layerValues(values, measured, untraced, length(opt.seconds/2), tr.stats(), before, after, rs)
		values["wal.recovery_ms"] = float64(recovery) / 1e6
		values["wal.recovered_records"] = float64(recovered.RecoveredRecords)
		res.Trace = 1
		res.Metrics, err = report(perLayer, values)
		if err == nil {
			err = tr.write(filepath.Join(opt.scratch, "trace.json"))
		}
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	err = fx.close()
	fx = nil
	return res, err
}

// layerValues fills in the per-layer metrics of a traced run.
func layerValues(v map[string]float64, traced, untraced *phase, length time.Duration, ts traceStats, before, after counters, rs *replayStats) {
	n := float64(len(traced.samples))
	reads, ops := float64(rs.reads), float64(rs.ops)
	per := func(total int64, den float64) float64 {
		if den == 0 {
			return 0
		}
		return float64(total) / den
	}

	v["client.self_us_per_op"] = ts.clientSelfUs
	v["client.retries"] = float64(ts.retries)
	for _, c := range classes {
		v["client.p50_ms."+c] = quantile(traced.latenciesMs(c), 0.50)
	}
	v["client.p95_ms.insert_batch"] = quantile(traced.latenciesMs("insert_batch"), 0.95)

	engineUs := float64((after.execNs-before.execNs)+(after.planNs-before.planNs)) / 1e3 / n
	v["server.handler_us_per_op"] = ts.handlerUs
	v["server.self_us_per_op"] = ts.handlerUs - engineUs
	v["server.admitted"] = float64(after.admitted - before.admitted)
	v["server.shed"] = float64(after.shed - before.shed)

	v["wire.encode_us_per_op"] = per(rs.encodeNs, reads) / 1e3
	v["wire.request_bytes_per_op"] = ts.reqBytes
	v["wire.response_bytes_per_op"] = ts.respBytes

	v["parser.parse_us_per_op"] = per(rs.parseNs, ops) / 1e3
	v["parser.sql_bytes_per_op"] = per(rs.sqlBytes, ops)
	v["binder.bind_us_per_op"] = per(rs.bindNs, reads) / 1e3
	v["core.expansions_per_op"] = per(int64(rs.expansions), reads)
	v["optimizer.optimize_us_per_op"] = per(rs.optNs, reads) / 1e3
	v["optimizer.winmagic_rewrites_per_op"] = per(int64(rs.winmagic), reads)
	v["optimizer.pushdowns_per_op"] = per(int64(rs.pushdowns), reads)

	v["exec.run_us_per_op"] = float64(after.execNs-before.execNs) / 1e3 / n
	v["exec.replay_us_per_op"] = per(rs.runNs, reads) / 1e3
	v["exec.run_vec_us_per_op"] = per(rs.vecNs, reads) / 1e3
	v["exec.rows_scanned_per_op"] = per(rs.rowsScanned, reads)
	v["exec.rows_scanned_per_row_out"] = per(rs.rowsScanned, float64(rs.rowsOut))
	v["exec.subquery_evals_per_op"] = per(rs.subqueryEvals, reads)
	v["exec.context_memo_hit_ratio"] = ratio(rs.subqueryHits, rs.subqueryHits+rs.subqueryEvals)
	v["exec.vec_fallback_ratio"] = ratio(rs.vecFallback, rs.vecFallback+rs.vecKernel)

	v["storage.scan_ns_per_row"] = rs.scanNsPerRow
	v["storage.insert_ns_per_row"] = rs.insertNsPerRow
	v["storage.heap_bytes_per_row"] = rs.heapBytesPerRow
	v["vec.transpose_ns_per_row"] = rs.transposeNsPerRow

	lookups := (after.plan.Hits - before.plan.Hits) + (after.plan.Misses - before.plan.Misses)
	v["engine.plan_cache_hit_ratio"] = ratio(after.plan.Hits-before.plan.Hits, lookups)
	v["engine.result_memo_hit_ratio"] = ratio(after.plan.MemoHits-before.plan.MemoHits, lookups)
	v["engine.plan_cache_invalidations"] = float64(after.plan.Invalidations - before.plan.Invalidations)
	v["engine.plan_cache_evictions"] = float64(after.plan.Evictions - before.plan.Evictions)

	rh, rm := after.rollup.Hits-before.rollup.Hits, after.rollup.Misses-before.rollup.Misses
	v["rollup.hit_ratio"] = ratio(rh, rh+rm)
	v["rollup.builds"] = float64(after.rollup.Builds - before.rollup.Builds)
	v["rollup.rebuilds"] = float64(after.rollup.Rebuilds - before.rollup.Rebuilds)
	v["rollup.incremental_rows"] = float64(after.rollup.IncrementalRows - before.rollup.IncrementalRows)
	v["rollup.groups"] = float64(after.rollup.Groups)

	v["wal.append_us_per_record"] = rs.walAppendUs
	v["wal.bytes_per_user_byte"] = rs.walBytesPerUserByte
	v["wal.fsyncs_per_append"] = ratio(after.wal.Fsyncs-before.wal.Fsyncs, after.wal.Appends-before.wal.Appends)
	v["wal.checkpoint_ms"] = ratio(after.wal.CheckpointNs-before.wal.CheckpointNs, after.wal.Checkpoints-before.wal.Checkpoints) / 1e6

	v["dist.self_us_per_op"] = ts.distSelfUs
	v["dist.shard_calls_per_op"] = ts.shardCalls
	v["dist.shard_wait_us_per_op"] = ts.shardWaitUs
	v["dist.shard_response_bytes_per_op"] = ts.shardRespBytes
	v["dist.retries"] = float64(after.retries - before.retries)
	v["dist.hedges"] = float64(after.hedges - before.hedges)
	v["dist.failovers"] = float64(after.failovers - before.failovers)

	v["trace.overhead_ratio"] = traced.throughput(length) / untraced.throughput(length)
}

func env() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Note:       "latencies are this sandbox's (loopback TCP, page-cache fsync), not a device's",
	}
}
