package main

// Tracing from the benchmark's own files: a span around each client
// call and one around each HTTP handler the request reaches, joined by
// the X-Request-Id the client sends and the coordinator propagates.
// Spans stay in memory and are written as trace.json when the run ends.
//
//	client.query ─┬─ server.handler                  (single server)
//	              └─ coord.handler ── shard.handler…  (fleet)
//
// A span's self time is its duration minus the part of its interval
// that its child spans cover.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

const (
	spanClient = "client.query"
	spanServer = "server.handler"
	spanCoord  = "coord.handler"
	spanShard  = "shard.handler"
)

type span struct {
	Req       string `json:"req"`
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
	Class     string `json:"class,omitempty"`
	Node      int    `json:"node"`
	Path      string `json:"path,omitempty"`
	StartNs   int64  `json:"start_ns"`
	DurNs     int64  `json:"dur_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wrap records one span per request that carries a correlation ID
// (probes such as /catalog without one are passed through untimed).
func (t *tracer) wrap(name, parent string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.record(span{Req: id, Name: name, Parent: parent, Node: node, Path: r.URL.Path,
			StartNs: int64(start.Sub(t.t0)), DurNs: int64(time.Since(start)),
			ReqBytes: body.n, RespBytes: cw.n})
	})
}

// install swaps span-recording handlers onto every endpoint of fx;
// uninstall restores the plain ones.
func (t *tracer) install(fx *fixture) {
	serve := func(l *listener, name, parent string, node int) {
		h := t.wrap(name, parent, node, l.plain)
		l.handler.Store(&h)
	}
	if fx.coord == nil {
		serve(fx.front, spanServer, spanClient, 0)
		return
	}
	serve(fx.front, spanCoord, spanClient, 0)
	for i, n := range fx.nodes {
		serve(n.ln, spanShard, spanCoord, i)
	}
}

func uninstall(fx *fixture) {
	fx.front.handler.Store(&fx.front.plain)
	for _, n := range fx.nodes {
		n.ln.handler.Store(&n.ln.plain)
	}
}

// traceStats are the per-op means read off the span tree.
type traceStats struct {
	ops            int
	clientSelfUs   float64
	handlerUs      float64 // time inside msqld handlers (shards, in the fleet)
	distSelfUs     float64
	shardCalls     float64
	shardWaitUs    float64
	shardRespBytes float64
	reqBytes       float64
	respBytes      float64
	retries        int // front-handler spans beyond one per client call
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func (t *tracer) stats() traceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]span{}
	for _, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var st traceStats
	var clientSelf, handler, distSelf, shardWait int64
	var calls, shardResp, reqB, respB int64
	for _, group := range byReq {
		var root *span
		for i := range group {
			if group[i].Name == spanClient {
				root = &group[i]
			}
		}
		if root == nil {
			continue
		}
		st.ops++
		var fronts, shards [][2]int64
		var slowest int64
		for _, s := range group {
			iv := [2]int64{s.StartNs, s.StartNs + s.DurNs}
			switch s.Name {
			case spanServer:
				fronts = append(fronts, iv)
				handler += s.DurNs
				reqB += s.ReqBytes
				respB += s.RespBytes
			case spanCoord:
				fronts = append(fronts, iv)
				reqB += s.ReqBytes
				respB += s.RespBytes
			case spanShard:
				shards = append(shards, iv)
				handler += s.DurNs
				shardResp += s.RespBytes
				calls++
				if s.DurNs > slowest {
					slowest = s.DurNs
				}
			}
		}
		st.retries += len(fronts) - 1
		clientSelf += root.DurNs - covered(root.StartNs, root.StartNs+root.DurNs, fronts)
		shardWait += slowest
		for _, f := range fronts {
			if len(shards) > 0 {
				distSelf += (f[1] - f[0]) - covered(f[0], f[1], shards)
			}
		}
	}
	if st.ops == 0 {
		return st
	}
	n := float64(st.ops)
	st.clientSelfUs = float64(clientSelf) / 1e3 / n
	st.handlerUs = float64(handler) / 1e3 / n
	st.distSelfUs = float64(distSelf) / 1e3 / n
	st.shardWaitUs = float64(shardWait) / 1e3 / n
	st.shardCalls = float64(calls) / n
	st.shardRespBytes = float64(shardResp) / n
	st.reqBytes = float64(reqB) / n
	st.respBytes = float64(respB) / n
	return st
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
