package client

// Client side of the prepared-statement protocol. Prepare registers a
// named statement on the server; the returned Stmt executes it with
// typed parameters, under the same overload retry policy as Query.

import (
	"context"
	"fmt"
	"time"

	"github.com/measures-sql/msql/internal/wire"
)

// Stmt is a named prepared statement registered on the server.
type Stmt struct {
	c         *Client
	name      string
	sql       string
	numParams int
}

// Name returns the server-side statement name.
func (s *Stmt) Name() string { return s.name }

// NumParams returns the number of parameter placeholders.
func (s *Stmt) NumParams() int { return s.numParams }

// Prepare registers sql under name on the server (replacing any
// previous statement of that name) and returns a handle for executing
// it. Registration itself retries overload responses like Query does.
func (c *Client) Prepare(ctx context.Context, name, sql string) (*Stmt, error) {
	var id string // travels as X-Request-Id; the body has no field for it
	rep, err := c.roundTrip(ctx, call{path: "/prepare", sql: sql}, wire.PrepareRequest{Name: name, SQL: sql}, &id)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, name: name, sql: sql, numParams: rep.NumParams}, nil
}

// Param is a typed wire parameter; build one with ParamOf or directly
// from a wire-shaped value.
type Param = wire.Param

// ParamOf builds a typed parameter from a Go value: nil → typeless
// NULL, bool → BOOLEAN, integers → INTEGER, floats → DOUBLE, string →
// VARCHAR, time.Time → DATE.
func ParamOf(v any) (Param, error) {
	switch v := v.(type) {
	case Param:
		return v, nil
	case nil:
		return Param{Type: "UNKNOWN", Value: nil}, nil
	case bool:
		return Param{Type: "BOOLEAN", Value: v}, nil
	case int:
		return Param{Type: "INTEGER", Value: int64(v)}, nil
	case int32:
		return Param{Type: "INTEGER", Value: int64(v)}, nil
	case int64:
		return Param{Type: "INTEGER", Value: v}, nil
	case float32:
		return Param{Type: "DOUBLE", Value: float64(v)}, nil
	case float64:
		return Param{Type: "DOUBLE", Value: v}, nil
	case string:
		return Param{Type: "VARCHAR", Value: v}, nil
	case time.Time:
		return Param{Type: "DATE", Value: v.Format("2006-01-02")}, nil
	default:
		return Param{}, fmt.Errorf("unsupported parameter type %T", v)
	}
}

// Exec executes the statement with the given Go-valued arguments,
// retrying overload responses under the client backoff policy.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	params := make([]Param, len(args))
	for i, a := range args {
		p, err := ParamOf(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		params[i] = p
	}
	return s.ExecParams(ctx, params)
}

// ExecParams executes the statement with explicit typed parameters.
func (s *Stmt) ExecParams(ctx context.Context, params []Param, opts ...QueryOption) (*Result, error) {
	var o requestOpts
	for _, f := range opts {
		f(&o)
	}
	req := wire.ExecuteRequest{Name: s.name, Params: params, RequestID: o.req.RequestID, TimeoutMillis: o.req.TimeoutMillis}
	k := call{path: "/execute", sql: s.sql, idempotent: o.idempotent}
	rep, err := s.c.roundTrip(ctx, k, &req, &req.RequestID)
	if err != nil {
		return nil, err
	}
	return result(rep, req.RequestID), nil
}
