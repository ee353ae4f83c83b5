// Read-only virtual tables: catalog objects whose rows are produced by
// a callback at scan time instead of storage. The engine registers its
// introspection surface (the msql_stats.* system tables) through this
// hook, so statement statistics, the live-query registry, and the
// metrics registry are queryable with ordinary SQL — measures included.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// VirtualTable is a read-only table backed by a row provider. It
// implements plan.RowSource structurally (Name/ColNames/ColTypes/Rows),
// so the binder can hand it straight to a Scan node.
type VirtualTable struct {
	TableName string
	Cols      []string
	Types     []sqltypes.Type
	// Provider produces the current rows; it is called once per scan and
	// must be safe for concurrent use (system state keeps changing under
	// the query). Row ordering should be deterministic for a given state.
	Provider func() [][]sqltypes.Value
}

// Name implements plan.RowSource.
func (t *VirtualTable) Name() string { return t.TableName }

// ColNames implements plan.RowSource.
func (t *VirtualTable) ColNames() []string { return t.Cols }

// ColTypes implements plan.RowSource.
func (t *VirtualTable) ColTypes() []sqltypes.Type { return t.Types }

// Rows implements plan.RowSource.
func (t *VirtualTable) Rows() [][]sqltypes.Value {
	if t.Provider == nil {
		return nil
	}
	return t.Provider()
}

// DataState returns the zero State, which is never the Same as any
// State: the provider's rows change without notice, so nothing computed
// from them may be kept.
func (t *VirtualTable) DataState() storage.State { return storage.State{} }

// RegisterVirtual installs (or replaces) a virtual table. Virtual names
// are conventionally schema-qualified ("msql_stats.statements"), which
// ordinary CREATE TABLE cannot produce, so they never collide with user
// objects.
func (c *Catalog) RegisterVirtual(t *VirtualTable) error {
	if t == nil || t.TableName == "" {
		return fmt.Errorf("virtual table needs a name")
	}
	if len(t.Cols) != len(t.Types) {
		return fmt.Errorf("virtual table %s: %d columns but %d types", t.TableName, len(t.Cols), len(t.Types))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.virtuals == nil {
		c.virtuals = map[string]*VirtualTable{}
	}
	c.virtuals[key(t.TableName)] = t
	c.schema.Add(1)
	return nil
}

// Virtual looks up a virtual table by (case-insensitive) name.
func (c *Catalog) Virtual(name string) (*VirtualTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.virtuals[key(name)]
	return t, ok
}

// VirtualNames returns the registered virtual table names, sorted (for
// the CLI's \d command).
func (c *Catalog) VirtualNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.virtuals))
	for _, t := range c.virtuals {
		names = append(names, t.TableName)
	}
	sort.Slice(names, func(i, j int) bool { return strings.ToLower(names[i]) < strings.ToLower(names[j]) })
	return names
}
