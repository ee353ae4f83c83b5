package client

// Coordinator-facing methods: the shard endpoints (/partial, /rows,
// /apply, /catalog) and the hedging helper a coordinator races a
// lagging shard's replica with.
//
// Retry policy differs by endpoint. Read and Catalog are idempotent
// reads, so they retry the full transient set (429/503, refused,
// reset/EOF). Apply is a version-guarded mutation: the client never
// resends it on a transport error, because a lost ack leaves "did it
// land?" genuinely unknown — the coordinator resolves that by probing
// /catalog and comparing versions, which the CAS contract makes
// unambiguous.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/measures-sql/msql/internal/wire"
)

// Frame is a shard read's answer: the shard's catalog version the
// query ran at and the reply's frame, decoded from its base64 but not
// parsed. The frame of /rows holds the query's rows
// (wire.DecodeRowsFrame reads it); that of /partial the shard's whole
// partial table (exec.AppendFrame) — the groups in first-row order,
// each its key values and one state per aggregate — which the
// coordinator's merge (exec.MergePartials) reads straight into its
// grouping table.
type Frame struct {
	Version int64
	Frame   []byte
}

// CatalogInfo is a shard's identity and catalog state.
type CatalogInfo struct {
	Version int64
	Tables  []string
	Views   []string
	ShardID string
}

// VersionMismatchError reports a catalog-version CAS miss: the server
// is at Have, the request expected Want. The caller repairs the
// endpoint (replaying missed mutations) rather than retrying blindly.
type VersionMismatchError struct {
	Have int64
	Want int64
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("catalog version mismatch: server at %d, expected %d", e.Have, e.Want)
}

// Read sends one shard read, req, to path: /rows runs the query and
// answers with its rows, /partial runs an aggregation's
// scan/filter/group phase and answers with the shard's partial table.
// It retries transient failures like an idempotent Query; a
// catalog-version miss surfaces as *VersionMismatchError.
func (c *Client) Read(ctx context.Context, path string, req wire.ReadRequest) (*Frame, error) {
	k := call{path: path, sql: req.SQL, idempotent: true, cas: true, expect: req.ExpectVersion}
	rep, err := c.roundTrip(ctx, k, &req, &req.RequestID)
	if err != nil {
		return nil, err
	}
	frame, err := base64.StdEncoding.DecodeString(rep.Frame)
	if err != nil {
		return nil, fmt.Errorf("%s frame: %w", path, err)
	}
	return &Frame{Version: rep.Version, Frame: frame}, nil
}

// Apply applies one mutation record (wal.EncodePayload) under the
// catalog-version CAS: the server applies it only if its version equals
// expect, advancing to expect+1. ok=false with err=nil is a version miss
// (version holds the server's current value). Transport errors are
// returned raw — resolving a lost ack is the coordinator's job (probe
// Catalog; the mutation landed iff the version advanced past expect).
func (c *Client) Apply(ctx context.Context, record []byte, expect int64, requestID string) (version int64, ok bool, err error) {
	req := wire.ApplyRequest{Record: record, ExpectVersion: expect, RequestID: requestID}
	k := call{path: "/apply", once: true, cas: true, expect: expect}
	rep, err := c.roundTrip(ctx, k, &req, &req.RequestID)
	var miss *VersionMismatchError
	switch {
	case errors.As(err, &miss):
		return miss.Have, false, nil
	case err != nil:
		return 0, false, err
	}
	return rep.Version, true, nil
}

// Catalog fetches the shard's identity and catalog state. It is a
// plain GET with no client-side retry loop: callers probe it inside
// their own failure-handling (breaker) machinery.
func (c *Client) Catalog(ctx context.Context) (*CatalogInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/catalog", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var cr wire.CatalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("decoding catalog response (HTTP %d): %w", resp.StatusCode, err)
	}
	if cr.Error != nil {
		return nil, cr.Error.ToError("")
	}
	return &CatalogInfo{Version: cr.Version, Tables: cr.Tables, Views: cr.Views, ShardID: cr.ShardID}, nil
}

// HedgeOutcome reports how a hedged call resolved.
type HedgeOutcome struct {
	// Winner is 0 when the primary's result was used, 1 for the hedge.
	Winner int
	// Hedged reports whether the secondary was launched at all (the
	// primary outran the hedge delay otherwise).
	Hedged bool
}

// Hedge runs primary immediately and, if it has not finished within
// delay, races a single hedge request against it; the first success
// wins and the loser's context is canceled. Both failing returns the
// primary's error. Use only for idempotent calls — both requests may
// execute.
func Hedge[T any](ctx context.Context, delay time.Duration, primary, secondary func(context.Context) (T, error)) (T, HedgeOutcome, error) {
	type outcome struct {
		val  T
		err  error
		from int
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func(from int, fn func(context.Context) (T, error)) {
		go func() {
			v, err := fn(ctx)
			ch <- outcome{val: v, err: err, from: from}
		}()
	}
	launch(0, primary)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	var zero T
	hedged := false
	launched := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				launched++
				launch(1, secondary)
			}
		case out := <-ch:
			if out.err == nil {
				return out.val, HedgeOutcome{Winner: out.from, Hedged: hedged}, nil
			}
			if out.from == 0 || firstErr == nil {
				firstErr = out.err
			}
			launched--
			if launched == 0 {
				if !hedged {
					// The primary failed before the hedge delay: try the
					// replica immediately rather than giving up.
					hedged = true
					launched++
					launch(1, secondary)
					continue
				}
				return zero, HedgeOutcome{Winner: -1, Hedged: hedged}, firstErr
			}
		case <-ctx.Done():
			return zero, HedgeOutcome{Winner: -1, Hedged: hedged}, ctx.Err()
		}
	}
}
