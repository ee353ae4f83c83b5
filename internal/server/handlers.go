package server

// The HTTP surface of msqld and msqlcoord:
//
//	POST /query         JSON in, one JSON object out
//	POST /query.ndjson  JSON in, newline-delimited stream out
//	                    (header, row lines, trailer)
//	GET  /healthz       liveness — 200 as long as the process serves
//	GET  /readyz        readiness — 503 once draining
//	GET  /metrics       Prometheus text (engine + server counters)
//	GET  /metrics.json  the same snapshot as expvar-style JSON
//	     /debug/pprof/  profiling, when Config.EnablePprof
//
// and, over an embedded session (msqld) only: /prepare and /execute
// (prepared.go), /rows, /partial, /apply and /catalog
// (shard_handlers.go), /statements, /queries and /kill (introspect.go).
//
// Every statement endpoint is an endpoint value served through serve,
// the one request envelope; what a request goes through, and in what
// order, is written there and nowhere else.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
)

// maxRequestBytes bounds a request body; a hostile client cannot make
// the server buffer an unbounded statement.
const maxRequestBytes = 1 << 20

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	endpoints := []endpoint{s.queryEndpoint("/query", appendResult, ""), s.queryEndpoint("/query.ndjson", appendStream, "application/x-ndjson")}
	if s.node != nil {
		endpoints = append(endpoints, s.prepareEndpoint(), s.executeEndpoint(), s.rowsEndpoint(), s.partialEndpoint(), s.applyEndpoint())
		mux.HandleFunc("/catalog", s.serveCatalog)
	}
	for _, ep := range endpoints {
		mux.HandleFunc(ep.path, s.serve(ep))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, s.db.Metrics().Prometheus())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, s.db.Metrics().JSON())
	})
	s.mountDebug(mux)
	return mux
}

// endpoint is everything that differs between statement endpoints: how
// the body decodes into a statement and how replies are shaped.
type endpoint struct {
	path string
	// source labels the statement's origin in the live-query registry.
	source string
	// hint is attached to a bad-request rejection.
	hint   string
	decode func(r *http.Request) (statement, error)
	// failBody shapes the error reply of an admitted request for an
	// endpoint whose reply object reports the catalog version; nil
	// replies with a wire.QueryResponse.
	failBody func(version int64, we *wire.Error) any
	// frame appends a success body to dst; nil appends it as one JSON
	// object through encoding/json.
	frame func(dst []byte, body any) ([]byte, error)
	// contentType labels a success body; empty is application/json.
	contentType string
}

// statement is one decoded request as the envelope sees it.
type statement struct {
	requestID string // body request_id; the X-Request-Id header wins
	timeoutMs int64  // body timeout_ms; 0 inherits the session's limit
	expect    int64  // catalog version the request pins; 0 pins none
	// run makes the backend call under the envelope's context and
	// options and returns the success body plus the row count for the
	// access log.
	run func(ctx context.Context, opts []msql.Option) (body any, rows int, err error)
}

// decodeAs builds an endpoint's decode from its request type: the one
// bounded body read, JSON decoding, then bind's validation.
func decodeAs[Req any](bind func(*Req) (statement, error)) func(*http.Request) (statement, error) {
	return func(r *http.Request) (statement, error) {
		req := new(Req)
		if err := readJSON(r, req); err != nil {
			return statement{}, err
		}
		return bind(req)
	}
}

var errNotPost = errors.New("POST only")

// readJSON decodes a bounded POST body in one pass. A number bound for
// an interface value (a parameter's) keeps its text, as json.Number.
// Like json.Unmarshal, it rejects anything after the body's one value.
func readJSON(r *http.Request, into any) error {
	if r.Method != http.MethodPost {
		return errNotPost
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes))
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid JSON: data after the top-level value")
	}
	return nil
}

// badRequest is the structured rejection of an undecodable request; a
// wrong method keeps its own status.
func badRequest(err error, hint string) (int, error) {
	status := http.StatusBadRequest
	if errors.Is(err, errNotPost) {
		status = http.StatusMethodNotAllowed
	}
	return status, &exec.Error{Code: exec.CodeParse, Phase: "request", Pos: -1, Hint: hint,
		Err: fmt.Errorf("bad request: %w", err)}
}

// reply is the envelope's verdict on one request: what goes into the
// ledger, the access log, and onto the wire.
type reply struct {
	requestID string
	admitted  bool // the request holds an execution slot
	status    int
	code      exec.Code // 0 on success
	killed    bool      // canceled by the drain deadline
	err       *wire.Error
	version   int64 // catalog version reported next to err
	body      any
	rows      int
	out       *[]byte // the encoded success body, a pooled buffer
}

// serve is the request envelope of every statement endpoint. process
// decides the reply, a success body already encoded; then, in order:
// the slot is held until the reply is written, the outcome ledger gets
// exactly one code, the access log exactly one line, and the reply is
// written.
func (s *Server) serve(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.counters.accepted.Add(1)
		rep := s.process(&ep, w, r)
		if rep.admitted {
			defer s.release()
		}
		s.outcome(rep.code)
		if rep.admitted && s.draining.Load() {
			if rep.killed {
				s.counters.drainKilled.Add(1)
			} else {
				s.counters.drained.Add(1)
			}
		}
		s.logAccess(ep.path, rep.requestID, rep.status, rep.code, time.Since(start), rep.rows)
		switch {
		case rep.err == nil:
			contentType := ep.contentType
			if contentType == "" {
				contentType = "application/json"
			}
			w.Header().Set("Content-Type", contentType)
			w.WriteHeader(http.StatusOK)
			w.Write(*rep.out)
			putBuffer(rep.out)
		case ep.failBody != nil && rep.admitted:
			s.writeError(w, rep.status, ep.failBody(rep.version, rep.err))
		default:
			s.writeError(w, rep.status, wire.QueryResponse{Error: rep.err})
		}
	}
}

// process takes one request from body to verdict. In order: panic
// isolation (a panic below, engine included, is that request's
// RUNTIME/500), bounded decode, request-ID resolution and echo, the
// accept failpoint and admission control, the catalog-version guard,
// the statement context (canceled with the client connection or by the
// drain deadline), the timeout clamp, the backend call, and the
// encoding of its reply — before any status is chosen, so a result the
// wire cannot carry (a non-finite DOUBLE) is that request's RUNTIME
// error, not a 200 with a broken body.
func (s *Server) process(ep *endpoint, w http.ResponseWriter, r *http.Request) (rep reply) {
	defer func() {
		if rec := recover(); rec != nil {
			s.counters.panics.Add(1)
			s.fail(&rep, 0, exec.PanicError(rec, exec.PhaseExecute))
		}
	}()

	st, err := ep.decode(r)
	rep.requestID = s.requestID(w, r, st.requestID)
	if err != nil {
		status, err := badRequest(err, ep.hint)
		s.fail(&rep, status, err)
		return rep
	}

	if status, err := s.admitOrReject(r.Context()); err != nil {
		s.fail(&rep, status, err)
		return rep
	}
	rep.admitted = true

	// A coordinator pins the version its plan was built against so a
	// lagging shard, or one that lost state, rejects instead of
	// answering from a catalog missing a mutation. One past it has only
	// applied a concurrent mutation since, and answers.
	if st.expect > 0 {
		if v := s.db.CatalogVersion(); v < st.expect {
			s.fail(&rep, 0, versionMismatch(v, st.expect))
			return rep
		}
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.killCtx, cancel)()

	// A client-supplied timeout is clamped to MaxTimeout; absent one,
	// the session's exec.Limits.Timeout applies inside the engine.
	opts := []msql.Option{msql.WithSource(ep.source), msql.WithRequestID(rep.requestID)}
	if st.timeoutMs > 0 {
		d := time.Duration(st.timeoutMs) * time.Millisecond
		if d <= 0 || d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		opts = append(opts, msql.WithTimeout(d))
	}

	if rep.body, rep.rows, err = st.run(ctx, opts); err != nil {
		s.fail(&rep, 0, err)
		return rep
	}
	if rep.out, err = encodeReply(ep.frame, rep.body); err != nil {
		s.fail(&rep, 0, exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute))
		return rep
	}
	rep.status = http.StatusOK
	return rep
}

// fail makes err rep's verdict: the one mapping from an error to its
// taxonomy code, drain-kill verdict, HTTP status and wire form. status
// 0 takes the taxonomy's, except that a statement canceled by (or
// during) a drain answers 503 so a retrying client fails over.
func (s *Server) fail(rep *reply, status int, err error) {
	rep.code = exec.CodeRuntime
	var ee *exec.Error
	if errors.As(err, &ee) {
		rep.code = ee.Code
	}
	rep.err = wire.FromError(err)
	rep.err.RequestID = rep.requestID
	rep.killed = rep.code == exec.CodeCanceled && s.killCtx.Err() != nil
	rep.version = s.db.CatalogVersion()
	var vm *versionMismatchError
	switch {
	case status != 0:
	case errors.As(err, &vm):
		status, rep.version = versionMismatchStatus, vm.have
	case rep.killed || (rep.code == exec.CodeCanceled && s.draining.Load()):
		status = http.StatusServiceUnavailable
	default:
		status = rep.err.HTTPStatus()
	}
	rep.status, rep.body, rep.rows = status, nil, 0
}

// admitOrReject fires the accept failpoint (chaos: an admission-path
// fault is shed exactly like real overload) and runs admission control.
// A nil error means the caller owns an execution slot and must release
// it; otherwise err is the structured rejection — shed requests land in
// the same RESOURCE_EXHAUSTED taxonomy as engine-side limit trips — and
// status its HTTP status when that is not the taxonomy's.
func (s *Server) admitOrReject(ctx context.Context) (status int, err error) {
	if exec.Fire(exec.FailServerAccept) != nil {
		s.counters.shed.Add(1)
		return 0, shed("retry with backoff", "admission failpoint fired")
	}
	switch s.admit(ctx) {
	case shedQueueFull:
		return 0, shed("retry with backoff", "server overloaded: %d executing, %d queued", s.cfg.MaxInflight, s.cfg.MaxQueue)
	case shedQueueWait:
		return 0, shed("retry with backoff", "no execution slot freed within %v", s.cfg.QueueWait)
	case rejectedDraining:
		return http.StatusServiceUnavailable, shed("retry against another replica", "server is draining")
	case abandonedByClient:
		// The client is (probably) gone; still answer with a structured
		// body in case the cancel raced with delivery.
		return 0, exec.CtxError(context.Canceled)
	}
	return 0, nil
}

func shed(hint, format string, args ...any) error {
	return &exec.Error{Code: exec.CodeResourceExhausted, Phase: "admission", Pos: -1, Hint: hint,
		Err: fmt.Errorf(format, args...)}
}

// maxPooledBuffer bounds the reply buffers kept for reuse, so one huge
// reply does not pin its buffer for the life of the process.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeReply frames body into a pooled buffer (frame nil: appendJSON),
// which the caller hands back to putBuffer once it is written.
func encodeReply(frame func([]byte, any) ([]byte, error), body any) (*[]byte, error) {
	if frame == nil {
		frame = appendJSON
	}
	buf := bufferPool.Get().(*[]byte)
	var err error
	if *buf, err = frame((*buf)[:0], body); err != nil {
		putBuffer(buf)
		return nil, err
	}
	return buf, nil
}

func putBuffer(buf *[]byte) {
	if cap(*buf) <= maxPooledBuffer {
		bufferPool.Put(buf)
	}
}

// appendJSON frames the rare success bodies (/prepare, /apply) through
// encoding/json: the bytes json.NewEncoder(w).Encode writes.
func appendJSON(dst []byte, body any) ([]byte, error) {
	b, err := json.Marshal(body)
	return append(append(dst, b...), '\n'), err
}

// appendResult frames a /query or /execute result as one JSON object.
func appendResult(dst []byte, body any) ([]byte, error) {
	return body.(*wire.Result).AppendReply(dst)
}

// appendStream frames a query result as a header line, one line per row
// and a trailer.
func appendStream(dst []byte, body any) ([]byte, error) {
	return body.(*wire.Result).AppendStream(dst)
}

// writeJSON sends one JSON object.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeError sends an error reply; 429 and 503 carry a Retry-After
// hint, 405 the allowed method.
func (s *Server) writeError(w http.ResponseWriter, status int, body any) {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case http.StatusMethodNotAllowed:
		w.Header().Set("Allow", http.MethodPost)
	}
	writeJSON(w, status, body)
}

// queryEndpoint is POST /query and /query.ndjson: run a script, answer
// with its last result.
func (s *Server) queryEndpoint(path string, frame func([]byte, any) ([]byte, error), contentType string) endpoint {
	return endpoint{
		path: path, source: "wire", frame: frame, contentType: contentType,
		hint: `POST a JSON body like {"sql": "SELECT ..."}`,
		decode: decodeAs(func(req *wire.QueryRequest) (statement, error) {
			if req.SQL == "" {
				return statement{}, errors.New("request carries no sql")
			}
			return statement{
				requestID: req.RequestID, timeoutMs: req.TimeoutMillis, expect: req.ExpectCatalogVersion,
				run: func(ctx context.Context, opts []msql.Option) (any, int, error) {
					results, err := s.db.RunContext(ctx, req.SQL, opts...)
					if err != nil {
						return nil, 0, err
					}
					res := &wire.Result{Message: "ok"}
					if len(results) > 0 {
						res = (*wire.Result)(results[len(results)-1])
					}
					return res, len(res.Rows), nil
				},
			}, nil
		}),
	}
}
