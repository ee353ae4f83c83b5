package server

// Shard-facing endpoints, used by a coordinator (internal/dist) rather
// than interactive clients:
//
//	POST /rows     run a query (a statement's shape and its parameters)
//	               on its plan-cache entry and return its rows as one
//	               frame
//	POST /partial  run an aggregation's scan/filter/group phase and
//	               return its partial table as one frame
//	POST /apply    apply one replicated mutation record, guarded by a
//	               catalog-version compare-and-swap
//	GET  /catalog  shard identity + catalog version/contents, for
//	               endpoint attachment and lost-ack probes
//
// /rows and /partial are the two shard reads: one request
// (wire.ReadRequest) pinned to a catalog version, one reply carrying
// the version and a frame (wire.ReadResponse). They and /apply are
// served through the request envelope like /query; /catalog is a cheap
// read like /metrics.

import (
	"context"
	"fmt"
	"net/http"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/wal"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
)

// versionMismatchStatus is the HTTP status of a catalog-version CAS
// miss. It is deliberately not 429/503: a stale shard needs repair by
// the coordinator, not a blind retry of the same request.
const versionMismatchStatus = http.StatusConflict

// versionMismatchError is the cause inside a versionMismatch rejection;
// the envelope reports have next to the error.
type versionMismatchError struct{ have, want int64 }

func (e *versionMismatchError) Error() string {
	return fmt.Sprintf("catalog version mismatch: shard at %d, request expects %d", e.have, e.want)
}

func versionMismatch(have, want int64) error {
	return &exec.Error{Code: exec.CodeRuntime, Phase: "catalog", Pos: -1,
		Hint: "resynchronize the endpoint, then retry", Err: &versionMismatchError{have, want}}
}

// readEndpoint is a shard read at path: read answers the request, its
// parameters decoded, with a success body that frame encodes.
func (s *Server) readEndpoint(path string, frame func(dst []byte, body any) ([]byte, error),
	read func(ctx context.Context, req *wire.ReadRequest, params []msql.Value, opts []msql.Option) (any, int, error)) endpoint {
	return endpoint{
		path: path, source: "shard", frame: frame,
		failBody: func(v int64, we *wire.Error) any { return wire.ReadResponse{Version: v, Error: we} },
		decode: decodeAs(func(req *wire.ReadRequest) (statement, error) {
			params, err := wire.DecodeParams(req.Params)
			if err != nil {
				return statement{}, err
			}
			return statement{
				requestID: req.RequestID, timeoutMs: req.TimeoutMillis, expect: req.ExpectVersion,
				run: func(ctx context.Context, opts []msql.Option) (any, int, error) {
					return read(ctx, req, params, opts)
				},
			}, nil
		}),
	}
}

// rowsEndpoint is POST /rows.
func (s *Server) rowsEndpoint() endpoint {
	return s.readEndpoint("/rows",
		func(dst []byte, body any) ([]byte, error) {
			r := body.(*rowsBody)
			return wire.AppendRows(dst, r.version, r.rows)
		},
		func(ctx context.Context, req *wire.ReadRequest, params []msql.Value, opts []msql.Option) (any, int, error) {
			res, err := s.node.QueryParams(ctx, req.SQL, params, opts...)
			if err != nil {
				return nil, 0, err
			}
			return &rowsBody{s.node.CatalogVersion(), res.Rows}, len(res.Rows), nil
		})
}

// rowsBody is a /rows success body before encoding.
type rowsBody struct {
	version int64
	rows    [][]msql.Value
}

// partialEndpoint is POST /partial.
func (s *Server) partialEndpoint() endpoint {
	return s.readEndpoint("/partial",
		func(dst []byte, body any) ([]byte, error) {
			p := body.(*partialBody)
			return wire.AppendPartial(dst, p.version, p.groups)
		},
		func(ctx context.Context, req *wire.ReadRequest, params []msql.Value, opts []msql.Option) (any, int, error) {
			res, err := s.node.PartialAggregate(ctx, req.SQL, params, req.Seq, req.Groups, req.Aggs, opts...)
			if err != nil {
				return nil, 0, err
			}
			return &partialBody{s.node.CatalogVersion(), res.Groups}, len(res.Groups), nil
		})
}

// partialBody is a /partial success body before encoding.
type partialBody struct {
	version int64
	groups  []exec.PartialGroup
}

// applyEndpoint is POST /apply: one mutation record, applied only at
// the catalog version the request expects.
func (s *Server) applyEndpoint() endpoint {
	return endpoint{
		path: "/apply", source: "shard",
		failBody: func(v int64, we *wire.Error) any { return wire.ApplyResponse{Version: v, Error: we} },
		decode: decodeAs(func(req *wire.ApplyRequest) (statement, error) {
			rec, err := wal.DecodePayload(req.Record)
			if err != nil {
				return statement{}, fmt.Errorf("record: %w", err)
			}
			return statement{
				requestID: req.RequestID,
				run: func(context.Context, []msql.Option) (any, int, error) {
					res, v, ok, err := s.node.ApplyCAS(rec, req.ExpectVersion)
					resp := wire.ApplyResponse{Version: v}
					switch {
					case ok:
						resp.Message = res.Message
					case err == nil:
						err = versionMismatch(v, req.ExpectVersion)
					}
					return resp, 0, err
				},
			}, nil
		}),
	}
}

func (s *Server) serveCatalog(w http.ResponseWriter, r *http.Request) {
	tables, views := s.node.Tables()
	writeJSON(w, http.StatusOK, wire.CatalogResponse{
		Version: s.node.CatalogVersion(),
		Tables:  tables,
		Views:   views,
		ShardID: s.cfg.ShardID,
	})
}
