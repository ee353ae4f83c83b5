package server

// Introspection and request-tracing surface:
//
//	GET  /statements    statement-stats store as JSON
//	GET  /queries       live (in-flight) queries as JSON
//	POST /kill          {"id": N} — cancel an in-flight query
//	     /debug/pprof/  net/http/pprof (when Config.EnablePprof)
//
// plus the request-ID contract shared by the statement endpoints: the
// effective ID is X-Request-Id header > body request_id > generated,
// echoed in the X-Request-Id response header, passed to the engine
// (tagging tracer spans and the live-query registry), attached to error
// payloads, and written to the structured access log.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/wire"
)

// requestID resolves the effective correlation ID for one request and
// echoes it in the response header.
func (s *Server) requestID(w http.ResponseWriter, r *http.Request, bodyID string) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = bodyID
	}
	if id == "" {
		id = fmt.Sprintf("srv-%d", s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	return id
}

// accessRecord is one access-log line; field order is the JSON order.
type accessRecord struct {
	TS        string  `json:"ts"`
	Path      string  `json:"path"`
	RequestID string  `json:"request_id"`
	Status    int     `json:"status"`
	Code      string  `json:"code,omitempty"`
	DurMs     float64 `json:"dur_ms"`
	Rows      int     `json:"rows"`
}

// logAccess writes one structured line to the access log, if configured.
func (s *Server) logAccess(path, requestID string, status int, code exec.Code, dur time.Duration, rows int) {
	if s.cfg.AccessLog == nil {
		return
	}
	rec := accessRecord{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		Path:      path,
		RequestID: requestID,
		Status:    status,
		DurMs:     float64(dur) / 1e6,
		Rows:      rows,
	}
	if code != 0 {
		rec.Code = code.String()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// serveStatements handles GET /statements: the statement-stats store.
func (s *Server) serveStatements(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"statements": s.node.StatementStats()})
}

// serveQueries handles GET /queries: the live-query registry.
func (s *Server) serveQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": s.node.ActiveQueries()})
}

// serveKill handles POST /kill {"id": N}: cancel an in-flight query by
// its session query ID. Unknown IDs answer 404 with a structured error
// so a raced KILL (the query just finished) is distinguishable from a
// successful one.
func (s *Server) serveKill(w http.ResponseWriter, r *http.Request) {
	s.counters.accepted.Add(1)
	var req wire.KillRequest
	if err := readJSON(r, &req); err != nil {
		status, err := badRequest(err, `POST a JSON body like {"id": 7}`)
		s.outcome(exec.CodeParse)
		s.writeError(w, status, wire.QueryResponse{Error: wire.FromError(err)})
		return
	}
	if !s.node.Kill(req.ID) {
		s.outcome(exec.CodeBind)
		writeJSON(w, http.StatusNotFound, wire.KillResponse{Error: &wire.Error{
			Code:    exec.CodeBind.String(),
			Phase:   "request",
			Offset:  -1,
			Hint:    "list running queries with GET /queries",
			Message: fmt.Sprintf("no running query with id %d", req.ID),
		}})
		return
	}
	s.outcome(0)
	writeJSON(w, http.StatusOK, wire.KillResponse{Killed: true})
}

// mountDebug adds the introspection endpoints of an embedded session
// and (optionally) pprof.
func (s *Server) mountDebug(mux *http.ServeMux) {
	if s.node != nil {
		mux.HandleFunc("/statements", s.serveStatements)
		mux.HandleFunc("/queries", s.serveQueries)
		mux.HandleFunc("/kill", s.serveKill)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
