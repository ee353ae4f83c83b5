package dist

// The coordinator's HTTP surface is internal/server's, mounted over the
// coordinator instead of an embedded session: a Coordinator is a
// server.Runner, so POST /query and /query.ndjson pass through the same
// request envelope as on an msqld node (admission, timeout clamp, panic
// isolation, access log, drain) and msql/client works against a
// coordinator unchanged. Only readiness differs: a coordinator is ready
// once every shard has been reached.

import (
	"context"
	"fmt"
	"net/http"

	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
)

// Handler returns the coordinator's HTTP handler: Front over a server
// with server.Config's defaults.
func (c *Coordinator) Handler() http.Handler {
	return c.Front(server.New(c, server.Config{}))
}

// Front returns srv's handler — srv must have been created over c —
// with /readyz also requiring every shard to be reachable.
func (c *Coordinator) Front(srv *server.Server) http.Handler {
	h := srv.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// A draining server says so itself; the shards need no probe.
		if !srv.Draining() {
			if err := c.Ready(r.Context()); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %v\n", err)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

// Ready probes every shard's health: ready means each shard has at
// least one endpoint answering /catalog.
func (c *Coordinator) Ready(ctx context.Context) error {
	for _, sh := range c.shards {
		ok := false
		var last error
		for _, ep := range sh.endpoints {
			if _, err := ep.cli.Catalog(ctx); err == nil {
				ok = true
				break
			} else {
				last = err
			}
		}
		if !ok {
			return fmt.Errorf("shard %d unreachable: %w", sh.idx, last)
		}
	}
	return nil
}

// The rest of server.Runner: a coordinator's catalog version, metrics
// and server counters are its local session's (the schema mirror, which
// also carries the shard counters).

func (c *Coordinator) CatalogVersion() int64 { return c.local.CatalogVersion() }

func (c *Coordinator) Metrics() msql.MetricsSnapshot { return c.local.Metrics() }

func (c *Coordinator) RegisterServerMetrics(fn func() msql.ServerCounters) {
	c.local.RegisterServerMetrics(fn)
}
