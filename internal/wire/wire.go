// Package wire defines the query server's wire protocol: the JSON
// request/response shapes shared by internal/server (the msqld front
// end) and msql/client, plus the faithful round-trip of the structured
// msql error taxonomy and of SQL values over JSON.
//
// Two framings share these types: a single-object JSON body (POST
// /query) and a newline-delimited stream (POST /query.ndjson) whose
// lines are a Header, zero or more RowLine objects, and a Trailer.
package wire

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// QueryRequest is the body of POST /query and /query.ndjson.
type QueryRequest struct {
	// SQL is a statement or script to execute.
	SQL string `json:"sql"`
	// TimeoutMillis, when > 0, requests a per-statement deadline. The
	// server clamps it to its configured maximum; 0 inherits the
	// server's session default (exec.Limits.Timeout).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// RequestID is the client's correlation ID for this request. The
	// X-Request-Id header takes precedence; when both are empty the
	// server generates one. The effective ID is echoed in the
	// X-Request-Id response header, the server's access log, the
	// engine's tracer spans, and any error payload.
	RequestID string `json:"request_id,omitempty"`
	// ExpectCatalogVersion, when > 0, makes the server reject the query
	// with a structured RUNTIME error while its catalog version is below
	// it, so a caller that planned against one catalog never reads an
	// endpoint that missed a mutation. A server past it answers: it has
	// applied mutations concurrent with the query.
	ExpectCatalogVersion int64 `json:"expect_catalog_version,omitempty"`
}

// ReadRequest is the body of a shard read, POST /partial or POST
// /rows: one query — a coordinator sends a statement's shape, its WHERE
// literals lifted into Params, so every statement of one shape plans
// once per shard — run at the catalog version it was planned against.
// /rows answers with the query's rows; /partial runs an aggregation's
// scan/filter/group phase and answers with its partial table — per
// group the key values and serialized AggStates — for a coordinator to
// merge with other shards' tables.
type ReadRequest struct {
	// SQL is a single SELECT. For /partial the server validates that
	// its plan is a plain aggregate over a filtered scan (no DISTINCT
	// aggregates, no GROUPING SETS; exec.PartialShape) whose shape
	// matches Groups/Aggs.
	SQL string `json:"sql"`
	// Params are the values of SQL's placeholders ($n), typed as on
	// /execute.
	Params []Param `json:"params,omitempty"`
	// Groups/Aggs (/partial only) cross-check the expected plan shape:
	// the number of GROUP BY expressions and of aggregate calls in SQL.
	Groups int `json:"groups,omitempty"`
	Aggs   int `json:"aggs,omitempty"`
	// Seq (/partial only), when set, names a column of the table the
	// aggregate reads — a coordinator's global insertion sequence —
	// whose per-group MIN the shard folds as one state more, after the
	// Aggs states, so the coordinator merges groups in first-row order.
	Seq string `json:"seq,omitempty"`
	// ExpectVersion, when > 0, is the catalog version this request was
	// planned against; a server below it rejects instead of answering
	// from a stale catalog, and one at or past it answers.
	ExpectVersion int64  `json:"expect_version,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
	RequestID     string `json:"request_id,omitempty"`
}

// ReadResponse is the body of a shard read's reply.
type ReadResponse struct {
	// Version is the catalog version the query ran at.
	Version int64 `json:"version"`
	// Frame is the query's answer as one frame: for /rows its rows
	// (AppendRowsFrame), for /partial its whole partial table
	// (exec.AppendFrame) — its groups in first-row order, each its key
	// values and one state per aggregate. encoding/json carries it as
	// base64.
	Frame []byte `json:"frame,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// ApplyRequest is the body of POST /apply: one replicated mutation, as
// the record a single node logs for it (wal.EncodePayload; encoding/json
// carries it as base64). The shard applies it as that node applied it.
// ExpectVersion makes application exactly-once: the server applies only
// if its catalog version equals ExpectVersion, and the version becomes
// ExpectVersion+1 on success, so a coordinator that loses an ack can
// probe /catalog to learn whether the mutation landed instead of
// resending it.
type ApplyRequest struct {
	Record        []byte `json:"record"`
	ExpectVersion int64  `json:"expect_version"`
	RequestID     string `json:"request_id,omitempty"`
}

// ApplyResponse is the body of a POST /apply reply. Version reports the
// server's catalog version after the call (also on version-mismatch
// rejections, so the coordinator can resynchronize).
type ApplyResponse struct {
	Version int64  `json:"version"`
	Message string `json:"message,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// CatalogResponse is the body of GET /catalog: the shard's identity and
// catalog state, used by coordinators to attach endpoints and to probe
// after a lost /apply ack.
type CatalogResponse struct {
	Version int64    `json:"version"`
	Tables  []string `json:"tables,omitempty"`
	Views   []string `json:"views,omitempty"`
	// ShardID is the -shard-id the node was started with; empty for
	// non-shard servers.
	ShardID string `json:"shard_id,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// QueryResponse is the body of a POST /query reply, success or failure.
type QueryResponse struct {
	// Columns/Types/Rows carry the last row-producing result.
	Columns []string `json:"columns,omitempty"`
	Types   []string `json:"types,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// Message carries a non-query statement's outcome ("created view …").
	Message string `json:"message,omitempty"`
	// Error is set instead of the above when the request failed.
	Error *Error `json:"error,omitempty"`
}

// KillRequest is the body of POST /kill: cancel the in-flight query
// with the given session query ID.
type KillRequest struct {
	ID int64 `json:"id"`
}

// KillResponse reports whether /kill found a running query to cancel.
type KillResponse struct {
	Killed bool   `json:"killed"`
	Error  *Error `json:"error,omitempty"`
}

// Header is the first line of an NDJSON response stream.
type Header struct {
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
}

// RowLine is one data line of an NDJSON response stream.
type RowLine struct {
	Row []any `json:"row"`
}

// Trailer ends an NDJSON response stream.
type Trailer struct {
	Done bool `json:"done"`
	Rows int  `json:"rows"`
}

// Error is the wire form of *exec.Error: every field a client needs to
// reconstruct the structured error, minus the query text (the client
// already has it and re-attaches it).
type Error struct {
	Code    string `json:"code"`
	Phase   string `json:"phase,omitempty"`
	Offset  int    `json:"offset"`
	Hint    string `json:"hint,omitempty"`
	Message string `json:"message"`
	// RequestID is the effective request correlation ID, echoed so a
	// failed request can be matched to server logs and traces.
	RequestID string `json:"request_id,omitempty"`
}

// FromError converts any engine error into its wire form. Non-taxonomy
// errors (there should be none escaping the engine) map to RUNTIME.
func FromError(err error) *Error {
	var e *exec.Error
	if !errors.As(err, &e) {
		return &Error{Code: exec.CodeRuntime.String(), Phase: exec.PhaseExecute, Offset: -1, Message: err.Error()}
	}
	msg := ""
	if e.Err != nil {
		msg = e.Err.Error()
	}
	return &Error{
		Code:    e.Code.String(),
		Phase:   e.Phase,
		Offset:  e.Pos,
		Hint:    e.Hint,
		Message: msg,
	}
}

// cause preserves the server-side message verbatim while still
// unwrapping to the context sentinel, so client-side
// errors.Is(err, context.Canceled) keeps working after a round trip.
type cause struct {
	msg   string
	under error
}

func (c *cause) Error() string { return c.msg }
func (c *cause) Unwrap() error { return c.under }

// ToError reconstructs the structured *exec.Error, attaching the query
// text the client sent.
func (w *Error) ToError(query string) *exec.Error {
	code := exec.CodeFromName(w.Code)
	var under error = &cause{msg: w.Message}
	switch code {
	case exec.CodeCanceled:
		under = &cause{msg: w.Message, under: context.Canceled}
	case exec.CodeTimeout:
		under = &cause{msg: w.Message, under: context.DeadlineExceeded}
	}
	return &exec.Error{
		Code:  code,
		Phase: w.Phase,
		Query: query,
		Pos:   w.Offset,
		Hint:  w.Hint,
		Err:   under,
	}
}

// HTTPStatus maps a taxonomy code to the status the server responds
// with. RESOURCE_EXHAUSTED is the overload-shed signal (429, paired
// with Retry-After); 503 is reserved for the draining server, which
// sets it explicitly.
func (w *Error) HTTPStatus() int {
	switch exec.CodeFromName(w.Code) {
	case exec.CodeParse, exec.CodeBind, exec.CodeExpand:
		return http.StatusBadRequest
	case exec.CodeCanceled:
		return StatusClientClosedRequest
	case exec.CodeTimeout:
		return http.StatusGatewayTimeout
	case exec.CodeResourceExhausted:
		return http.StatusTooManyRequests
	case exec.CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// StatusClientClosedRequest reports that the client went away before
// the statement finished (nginx's 499 convention; net/http has no name
// for it).
const StatusClientClosedRequest = 499

// Retryable reports whether a response status invites a retry: only
// overload (429) and draining/unavailable (503). Every other status is
// deterministic — retrying would repeat the same failure.
func Retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// RetryAfterSeconds parses a Retry-After header in its seconds form,
// returning 0 when absent or malformed.
func RetryAfterSeconds(h http.Header) int {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// EncodeRows converts result rows to their JSON-native wire form.
func EncodeRows(rows [][]sqltypes.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		enc := make([]any, len(row))
		for j, v := range row {
			enc[j] = EncodeValue(v)
		}
		out[i] = enc
	}
	return out
}

// EncodeValue maps a SQL value onto JSON-native types: NULL → null,
// BOOLEAN → bool, INTEGER → number, DOUBLE → number, VARCHAR → string,
// DATE → "YYYY-MM-DD" string.
func EncodeValue(v sqltypes.Value) any {
	if v.Null {
		return nil
	}
	switch v.K {
	case sqltypes.KindBool:
		return v.B
	case sqltypes.KindInt:
		return v.I
	case sqltypes.KindFloat:
		return v.F()
	case sqltypes.KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return v.S
	}
}
