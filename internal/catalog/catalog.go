// Package catalog tracks the named objects of a database session: base
// tables (backed by storage) and views (stored as ASTs, re-bound on use
// so that measures always reflect the current definition). Object names
// are case-insensitive, like standard SQL unquoted identifiers.
package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// SequenceColumn is a system column, as PostgreSQL's ctid or SQLite's
// rowid: a column read only by name. `*` and `t.*` never expand it, and
// a NATURAL JOIN never counts it as a common column. A sharded table
// holds it on every shard: the coordinator's global insertion sequence,
// which orders gathered rows and scattered groups as one node would
// have seen them. So a shard's tables bind every statement and view as
// the user's tables do.
const SequenceColumn = "__mseq"

// BaseTable is a stored table; it implements plan.RowSource.
type BaseTable struct {
	Data *storage.Table
}

// Name implements plan.RowSource.
func (t *BaseTable) Name() string { return t.Data.Name() }

// ColNames implements plan.RowSource.
func (t *BaseTable) ColNames() []string { return t.Data.ColNames() }

// ColTypes implements plan.RowSource.
func (t *BaseTable) ColTypes() []sqltypes.Type { return t.Data.ColTypes() }

// Rows implements plan.RowSource.
func (t *BaseTable) Rows() [][]sqltypes.Value { return t.Data.Rows() }

// DataState returns the state of the table's rows (see storage.State).
func (t *BaseTable) DataState() storage.State { return t.Data.State() }

// Snapshot returns the rows together with the state they are in.
func (t *BaseTable) Snapshot() ([][]sqltypes.Value, storage.State) { return t.Data.Snapshot() }

// View is a named query; measures inside it are re-bound on every use.
type View struct {
	ViewName string
	Query    *ast.Query
}

// Catalog is the session namespace.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*BaseTable
	views  map[string]*View
	// virtuals are read-only provider-backed tables (see virtual.go);
	// they resolve after tables and views, so they can never shadow a
	// user object.
	virtuals map[string]*VirtualTable
	// version numbers the mutations applied to the database: DDL bumps
	// it here, the engine bumps it after INSERT and TRUNCATE. It is a
	// sequence (the shards' apply cursor, the WAL snapshot position) and
	// decides nobody's validity.
	version atomic.Int64
	// schema counts DDL only. Whatever is derived from definitions alone
	// (a bound and optimized plan) is valid while it stands still.
	schema atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*BaseTable),
		views:  make(map[string]*View),
	}
}

func key(name string) string { return strings.ToLower(name) }

// Version returns the number of mutations applied so far.
func (c *Catalog) Version() int64 { return c.version.Load() }

// BumpVersion counts a mutation the catalog does not see (INSERT,
// TRUNCATE); DDL entry points count themselves.
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// RestoreVersion forces the mutation count, used by crash recovery to
// continue the pre-crash sequence: a coordinator's apply cursor from
// before the crash still lines up with the recovered shard.
func (c *Catalog) RestoreVersion(v int64) { c.version.Store(v) }

// SchemaVersion returns the DDL counter.
func (c *Catalog) SchemaVersion() int64 { return c.schema.Load() }

// ddl counts one applied DDL statement in both counters.
func (c *Catalog) ddl() {
	c.version.Add(1)
	c.schema.Add(1)
}

// CreateTable registers a new base table. The catalog keeps copies of
// name and cols: they may be substrings of a script, which nothing that
// outlives a statement may keep alive.
func (c *Catalog) CreateTable(name string, cols []string, types []sqltypes.Type, orReplace bool) (*BaseTable, error) {
	name = strings.Clone(name)
	cols = slices.Clone(cols)
	for i := range cols {
		cols[i] = strings.Clone(cols[i])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if !orReplace {
		if _, ok := c.tables[k]; ok {
			return nil, fmt.Errorf("table %s already exists", name)
		}
		if _, ok := c.views[k]; ok {
			return nil, fmt.Errorf("view %s already exists", name)
		}
	}
	delete(c.views, k)
	t := &BaseTable{Data: storage.NewTable(name, cols, types)}
	c.tables[k] = t
	c.ddl()
	return t, nil
}

// CheckCreate reports whether a CREATE (table or view) of name would
// succeed under the or-replace flag, without applying anything. The
// durable engine calls it before logging a DDL record, so a record is
// only written for a statement that will apply cleanly; the check must
// mirror the preconditions of CreateTable and CreateView exactly.
func (c *Catalog) CheckCreate(name string, orReplace bool) error {
	if orReplace {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("table %s already exists", name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("view %s already exists", name)
	}
	return nil
}

// CheckDrop reports whether Drop(kind, name) would succeed, without
// applying anything; it must mirror Drop's preconditions exactly.
func (c *Catalog) CheckDrop(kind, name string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	switch kind {
	case "TABLE":
		if _, ok := c.tables[k]; !ok {
			return fmt.Errorf("table %s does not exist", name)
		}
	case "VIEW":
		if _, ok := c.views[k]; !ok {
			return fmt.Errorf("view %s does not exist", name)
		}
	default:
		return fmt.Errorf("unknown object kind %s", kind)
	}
	return nil
}

// CreateView registers a view definition. The catalog keeps a copy of
// name, as CreateTable does; q must not point into a longer text than
// its own (the engine parses it from the view's formatted SQL).
func (c *Catalog) CreateView(name string, q *ast.Query, orReplace bool) error {
	name = strings.Clone(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if !orReplace {
		if _, ok := c.tables[k]; ok {
			return fmt.Errorf("table %s already exists", name)
		}
		if _, ok := c.views[k]; ok {
			return fmt.Errorf("view %s already exists", name)
		}
	}
	delete(c.tables, k)
	c.views[k] = &View{ViewName: name, Query: q}
	c.ddl()
	return nil
}

// Drop removes a table or view; kind is "TABLE" or "VIEW".
func (c *Catalog) Drop(kind, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	switch kind {
	case "TABLE":
		if _, ok := c.tables[k]; !ok {
			return fmt.Errorf("table %s does not exist", name)
		}
		delete(c.tables, k)
	case "VIEW":
		if _, ok := c.views[k]; !ok {
			return fmt.Errorf("view %s does not exist", name)
		}
		delete(c.views, k)
	default:
		return fmt.Errorf("unknown object kind %s", kind)
	}
	c.ddl()
	return nil
}

// Table looks up a base table.
func (c *Catalog) Table(name string) (*BaseTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// Names returns all object names, for the CLI's \d command.
func (c *Catalog) Names() (tables, views []string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		tables = append(tables, t.Name())
	}
	for _, v := range c.views {
		views = append(views, v.ViewName)
	}
	return tables, views
}
