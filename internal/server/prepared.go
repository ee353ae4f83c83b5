package server

// Prepared-statement endpoints:
//
//	POST /prepare  {"name": "q", "sql": "SELECT ... WHERE a > $1"}
//	POST /execute  {"name": "q", "params": [{"type":"INTEGER","value":3}]}
//
// Both are served through the request envelope — a PREPARE binds the
// statement against the catalog and an EXECUTE runs a full query, so
// neither may bypass overload shedding or drain. Executions route
// through the session plan cache: the first EXECUTE of a (statement,
// parameter types, settings) combination plans and caches, later ones
// reuse the compiled pipeline.

import (
	"context"
	"errors"

	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
)

// prepareEndpoint is POST /prepare: parse + bind the statement and
// register it under its name (replacing any previous definition).
func (s *Server) prepareEndpoint() endpoint {
	return endpoint{
		path: "/prepare", source: "wire",
		hint: `POST a JSON body like {"name": "q", "sql": "SELECT ... WHERE a > $1"}`,
		decode: decodeAs(func(req *wire.PrepareRequest) (statement, error) {
			if req.Name == "" || req.SQL == "" {
				return statement{}, errors.New("prepare request needs both name and sql")
			}
			return statement{run: func(context.Context, []msql.Option) (any, int, error) {
				n, err := s.node.PrepareNamed(req.Name, req.SQL)
				return wire.PrepareResponse{Name: req.Name, NumParams: n}, 0, err
			}}, nil
		}),
	}
}

// executeEndpoint is POST /execute: decode typed parameters and run the
// named statement through the plan cache.
func (s *Server) executeEndpoint() endpoint {
	return endpoint{
		path: "/execute", source: "wire", frame: appendResult,
		hint: `POST a JSON body like {"name": "q", "params": [{"type":"INTEGER","value":3}]}`,
		decode: decodeAs(func(req *wire.ExecuteRequest) (statement, error) {
			if req.Name == "" {
				return statement{}, errors.New("execute request carries no statement name")
			}
			vals, err := wire.DecodeParams(req.Params)
			if err != nil {
				return statement{}, err
			}
			return statement{
				requestID: req.RequestID, timeoutMs: req.TimeoutMillis,
				run: func(ctx context.Context, opts []msql.Option) (any, int, error) {
					res, err := s.node.ExecuteNamed(ctx, req.Name, vals, opts...)
					if err != nil {
						return nil, 0, err
					}
					return (*wire.Result)(res), len(res.Rows), nil
				},
			}, nil
		}),
	}
}
