package dist_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/measures-sql/msql/msql"
)

// retentionScript holds a table with lower- and mixed-case names, an
// INSERT of strings, dates and numbers, a view with a numeric and a
// string literal, and a prepared statement.
const retentionScript = `CREATE TABLE sales (region VARCHAR, Prod VARCHAR, amount INTEGER, sold DATE);
INSERT INTO sales VALUES ('east', 'apple', 10, DATE '2024-01-02'), ('west', 'pear', 7, DATE '2024/02/03'),
  ('east', 'it''s', 3, DATE '2024-03-04'), ('north', 'apple', 12.0, DATE '2024-04-05');
CREATE VIEW big_sales AS SELECT *, SUM(amount) AS MEASURE total FROM sales WHERE amount > 5 AND region <> 'north';
PREPARE sales_over (INTEGER) AS SELECT region, SUM(amount) AS s FROM sales WHERE amount > ? GROUP BY region;
`

// TestLoadedScriptIsNotRetained loads a script on a single node and
// through a coordinator over two shards, then walks everything reachable
// from the database and the coordinator: no string may point into the
// script's bytes. A catalog name, a column name, a view's AST, a routing
// key or a stored value that did would keep the whole script alive for
// the life of the database.
func TestLoadedScriptIsNotRetained(t *testing.T) {
	t.Run("single node", func(t *testing.T) {
		db := msql.Open()
		defer db.Close()
		script := strings.Clone(retentionScript)
		if err := db.Exec(script); err != nil {
			t.Fatal(err)
		}
		checkLoaded(t, db.Query)
		for _, p := range pointingInto(db, script) {
			t.Errorf("the database keeps the script's bytes: %s", p)
		}
	})
	t.Run("coordinator over 2 shards", func(t *testing.T) {
		coord, _, nodes := cluster(t, 2)
		script := strings.Clone(retentionScript)
		if err := coord.Exec(context.Background(), script); err != nil {
			t.Fatal(err)
		}
		checkLoaded(t, func(sql string) (*msql.Result, error) { return coord.Query(context.Background(), sql) })
		roots := map[string]any{"coordinator": coord}
		for _, n := range nodes {
			roots[n.id] = n.db
		}
		for _, p := range pointingInto(roots, script) {
			t.Errorf("the fleet keeps the script's bytes: %s", p)
		}
	})
}

func checkLoaded(t *testing.T, query func(string) (*msql.Result, error)) {
	t.Helper()
	r, err := query("SELECT region, AGGREGATE(total) AS t FROM big_sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.Rows); got != "[[east 10] [west 7]]" {
		t.Fatalf("the loaded view reads %s", got)
	}
}

// pointingInto walks every value reachable from root — through
// pointers, interfaces, structs (see holdsState), slices, arrays, maps
// and atomic.Pointers, unexported fields included — and returns the path
// and text of each string whose bytes lie inside src.
func pointingInto(root any, src string) []string {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	type visit struct {
		p uintptr
		t reflect.Type
		n int
	}
	seen := map[visit]bool{}
	refs := map[reflect.Type]bool{}
	var found, path []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !hasRefs(v.Type(), refs) {
			return
		}
		switch v.Kind() {
		case reflect.String:
			if s := v.String(); len(s) > 0 {
				if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); lo <= p && p < hi {
					found = append(found, fmt.Sprintf("%s = %q", strings.Join(path, ""), s))
				}
			}
		case reflect.Pointer:
			if k := (visit{v.Pointer(), v.Type(), 0}); !v.IsNil() && !seen[k] {
				seen[k] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if target, ok := atomicPointer(v); ok {
				walk(target)
				return
			}
			if !holdsState(v.Type()) {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				path = append(path, "."+v.Type().Field(i).Name)
				walk(v.Field(i))
				path = path[:len(path)-1]
			}
		case reflect.Slice:
			k := visit{v.Pointer(), v.Type(), v.Len()}
			if v.IsNil() || seen[k] {
				return
			}
			seen[k] = true
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				path = append(path, fmt.Sprintf("[%d]", i))
				walk(v.Index(i))
				path = path[:len(path)-1]
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				path = append(path, fmt.Sprintf("[%v]", it.Key()))
				walk(it.Key())
				walk(it.Value())
				path = path[:len(path)-1]
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// holdsState reports whether the walk enters a struct of type t: any
// type of this module, and of the standard library only the containers
// it keeps state in (sync/atomic, container/list). The rest — HTTP
// transports, locks, timers — holds no catalog state, and live
// goroutines write it while the walk would read it.
func holdsState(t reflect.Type) bool {
	pkg := t.PkgPath()
	return pkg == "" || strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") ||
		pkg == "sync/atomic" || pkg == "container/list"
}

// atomicPointer follows a sync/atomic.Pointer[T] to the *T it holds.
func atomicPointer(v reflect.Value) (reflect.Value, bool) {
	t := v.Type()
	if t.PkgPath() != "sync/atomic" || !strings.HasPrefix(t.Name(), "Pointer[") {
		return reflect.Value{}, false
	}
	elem := t.Field(0).Type.Elem().Elem() // the field _ [0]*T
	return reflect.NewAt(elem, unsafe.Pointer(v.FieldByName("v").Pointer())), true
}

// hasRefs reports whether a value of type t can reach a string.
func hasRefs(t reflect.Type, memo map[reflect.Type]bool) bool {
	if r, ok := memo[t]; ok {
		return r
	}
	memo[t] = true // a recursive type reaches whatever it reaches
	r := false
	switch t.Kind() {
	case reflect.String, reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		r = true
	case reflect.Array:
		r = hasRefs(t.Elem(), memo)
	case reflect.Struct:
		for i := 0; i < t.NumField() && !r; i++ {
			r = hasRefs(t.Field(i).Type, memo)
		}
	}
	memo[t] = r
	return r
}
