package wire

// Prepared-statement wire messages: POST /prepare registers a named
// parameterized statement, POST /execute runs it with typed parameter
// values. Parameters carry an explicit SQL type name alongside the
// JSON-native value because JSON cannot distinguish INTEGER from
// DOUBLE, and the plan cache keys on parameter types — an ambiguous
// number would make one client flip a server between cache entries.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// PrepareRequest is the body of POST /prepare. Re-preparing an existing
// name replaces it (clients re-prepare after reconnecting).
type PrepareRequest struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// PrepareResponse is the body of a POST /prepare reply.
type PrepareResponse struct {
	Name      string `json:"name,omitempty"`
	NumParams int    `json:"num_params"`
	Error     *Error `json:"error,omitempty"`
}

// ExecuteRequest is the body of POST /execute.
type ExecuteRequest struct {
	Name   string  `json:"name"`
	Params []Param `json:"params,omitempty"`
	// RequestID has /query semantics: the X-Request-Id header wins,
	// empty generates one server-side.
	RequestID string `json:"request_id,omitempty"`
	// TimeoutMillis has /query semantics: clamped by the server.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Param is one typed parameter value. Type is the SQL type name
// (BOOLEAN, INTEGER, DOUBLE, VARCHAR, DATE); Value is the JSON-native
// encoding EncodeValue produces (null encodes SQL NULL of that type).
// The server decodes request bodies with json.Decoder.UseNumber, so a
// number is kept as its text (json.Number) and an INTEGER beyond 2^53
// reaches Decode exactly.
type Param struct {
	Type  string `json:"type"`
	Value any    `json:"value"`
}

// EncodeParam converts a SQL value to its wire form.
func EncodeParam(v sqltypes.Value) Param {
	return Param{Type: v.K.String(), Value: EncodeValue(v)}
}

// EncodeParams converts a parameter list to its wire form.
func EncodeParams(vals []sqltypes.Value) []Param {
	if len(vals) == 0 {
		return nil
	}
	out := make([]Param, len(vals))
	for i, v := range vals {
		out[i] = EncodeParam(v)
	}
	return out
}

// Decode reconstructs the SQL value, round-tripping exactly what
// EncodeParam produced. The declared type drives interpretation:
// INTEGER rejects non-integral numbers instead of truncating.
func (p Param) Decode() (sqltypes.Value, error) {
	kind := sqltypes.KindFromName(p.Type)
	if kind == sqltypes.KindUnknown && p.Type != "" && p.Type != "UNKNOWN" {
		return sqltypes.Value{}, fmt.Errorf("unknown parameter type %q", p.Type)
	}
	if p.Value == nil {
		return sqltypes.Null(kind), nil
	}
	switch kind {
	case sqltypes.KindBool:
		b, ok := p.Value.(bool)
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("BOOLEAN parameter carries %T", p.Value)
		}
		return sqltypes.NewBool(b), nil
	case sqltypes.KindInt:
		i, ok := intParam(p.Value)
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("INTEGER parameter carries %v (%T)", p.Value, p.Value)
		}
		return sqltypes.NewInt(i), nil
	case sqltypes.KindFloat:
		f, ok := floatParam(p.Value)
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("DOUBLE parameter carries %T", p.Value)
		}
		return sqltypes.NewFloat(f), nil
	case sqltypes.KindString:
		s, ok := p.Value.(string)
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("VARCHAR parameter carries %T", p.Value)
		}
		return sqltypes.NewString(s), nil
	case sqltypes.KindDate:
		s, ok := p.Value.(string)
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("DATE parameter carries %T", p.Value)
		}
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			return sqltypes.Value{}, fmt.Errorf("DATE parameter: %w", err)
		}
		return sqltypes.NewDate(t.Year(), t.Month(), t.Day()), nil
	default:
		return sqltypes.Value{}, fmt.Errorf("parameter with no type carries non-null %T", p.Value)
	}
}

// intParam reads an INTEGER parameter's value as EncodeParam (int64) or
// the JSON decode (json.Number) leaves it: any int64 written as an
// integer, or an integral number up to 2^53 written otherwise (3.0,
// 1e3), which a float64 still holds exactly.
func intParam(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return i, true
		}
		f, err := x.Float64()
		if err != nil || f != math.Trunc(f) || math.Abs(f) > 1<<53 {
			return 0, false
		}
		return int64(f), true
	}
	return 0, false
}

// floatParam reads a DOUBLE parameter's value as EncodeParam (float64)
// or the JSON decode (json.Number) leaves it.
func floatParam(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// DecodeParams reconstructs a parameter list.
func DecodeParams(ps []Param) ([]sqltypes.Value, error) {
	vals := make([]sqltypes.Value, len(ps))
	for i, p := range ps {
		v, err := p.Decode()
		if err != nil {
			return nil, fmt.Errorf("parameter %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}
