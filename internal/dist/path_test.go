package dist_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
)

// pathSchema adds to the paper's data the sharded_fleet benchmark's
// measure view EO, and a table T, partitioned by p, whose partition p2
// holds a duplicated row, with a projected view and a `*` measure view.
const pathSchema = paperdata.All + `;
CREATE VIEW EO AS
SELECT *, YEAR(orderDate) AS orderYear,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin,
       SUM(revenue) AS MEASURE sumRevenue
FROM Orders;
CREATE TABLE T (p VARCHAR, g VARCHAR, k INTEGER, x INTEGER);
INSERT INTO T VALUES ('p1', 'a', 1, 10), ('p2', 'b', 2, 20), ('p2', 'b', 2, 20), ('p3', 'a', 3, 30),
  ('p2', 'a', 4, 40), ('p1', 'b', 5, 50), ('p4', 'c', 6, 60);
CREATE VIEW VC AS SELECT g, x FROM T;
CREATE VIEW TV AS SELECT *, COUNT(*) AS MEASURE cnt FROM T`

// shapePaths pins the path the coordinator takes for each shape: the
// span names of its shard calls.
var shapePaths = []struct{ path, sql string }{
	{"local", `SELECT 1 + 2 AS three`},
	// sharded_fleet's three classes; its "gather" class inlines the
	// measure and scatters.
	{"route", `SELECT custName, COUNT(*) AS n, SUM(revenue) AS rev FROM Orders WHERE prodName = 'Happy' AND revenue > 3 GROUP BY custName ORDER BY custName`},
	{"partial", `SELECT prodName, COUNT(*) AS cnt, SUM(revenue) AS rev, SUM(revenue - cost) AS profit FROM Orders WHERE revenue > 3 AND cost < 4 GROUP BY prodName ORDER BY prodName`},
	{"partial", `SELECT prodName, AGGREGATE(margin) AS m FROM EO WHERE revenue > 3 GROUP BY prodName ORDER BY prodName`},
	// A projection between the aggregate and the table merges into the
	// aggregate.
	{"partial", `SELECT g, SUM(x) AS s, COUNT(*) AS n FROM VC GROUP BY g ORDER BY g`},
	{"partial", `SELECT prodName, SUM(revenue) AS rev FROM (SELECT prodName, revenue FROM Orders) d GROUP BY prodName ORDER BY prodName`},
	// What a shard's groups cannot answer.
	{"gather", `SELECT COUNT(*) AS n FROM (SELECT * FROM Orders LIMIT 2) AS d`},
	{"gather", `SELECT prodName, COUNT(*) AS n FROM Orders GROUP BY prodName HAVING COUNT(*) > 1 ORDER BY prodName`},
	{"gather", `SELECT DISTINCT COUNT(*) AS n FROM Orders GROUP BY prodName ORDER BY n`},
	{"gather", `SELECT prodName, COUNT(*) AS n, (SELECT MAX(revenue) FROM Orders) AS top FROM Orders GROUP BY prodName ORDER BY prodName`},
	// Every scan pinned to one partition, or not.
	{"route", `SELECT k, x FROM T WHERE p = 'p2' AND k > (SELECT MIN(k) FROM T WHERE p = 'p2') ORDER BY k`},
	{"gather", `SELECT k, x FROM T WHERE p = 'p2' AND k > (SELECT MIN(k) FROM T) ORDER BY k`},
	// Pinned, and naming every column of the table: a shard's table
	// also holds the sequence column, but `*`, DISTINCT *, a NATURAL
	// JOIN and a measure's row context over a `*` view never see it, so
	// the duplicated rows stay alike there and the statement routes.
	{"route", `SELECT * FROM T WHERE p = 'p2' ORDER BY k`},
	{"route", `SELECT COUNT(*) AS n FROM (SELECT DISTINCT * FROM T WHERE p = 'p2') AS d`},
	{"route", `SELECT a.k FROM T a NATURAL JOIN T b WHERE a.p = 'p2' AND b.p = 'p2' ORDER BY a.k`},
	{"route", `SELECT g, k, cnt AT (VISIBLE) AS c FROM TV WHERE p = 'p2' ORDER BY g, k`},
}

// TestEachShapeTakesItsPath: the coordinator picks routed, scatter or
// gather from the plan it cached, as the shard calls it makes show, and
// every path answers as a single node does.
func TestEachShapeTakesItsPath(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, pathSchema)
	var mu sync.Mutex
	calls := map[string]bool{}
	coord.SetTrace(traceFunc(func(s exec.Span) {
		if s.Phase == "shard" {
			mu.Lock()
			calls[s.Name] = true
			mu.Unlock()
		}
	}))
	for _, c := range shapePaths {
		mu.Lock()
		clear(calls)
		mu.Unlock()
		queryBoth(t, coord, oracle, c.sql)
		mu.Lock()
		names := make([]string, 0, len(calls))
		for name := range calls {
			names = append(names, name)
		}
		mu.Unlock()
		sort.Strings(names)
		got := strings.Join(names, ",")
		if got == "" {
			got = "local"
		}
		if got != c.path {
			t.Errorf("%s:\nshard calls %q, want %q", c.sql, got, c.path)
		}
	}
}

// TestLocalStatementPlansOnce: a statement that reads no sharded table
// runs on the plan the coordinator made to classify it, so statements
// of one shape are parsed and bound once.
func TestLocalStatementPlansOnce(t *testing.T) {
	coord, _, _ := cluster(t, 2)
	var mu sync.Mutex
	phases := map[string]int{}
	coord.SetTrace(traceFunc(func(s exec.Span) {
		mu.Lock()
		phases[s.Phase]++
		mu.Unlock()
	}))
	for i := 0; i < 3; i++ {
		res, err := coord.Query(context.Background(), fmt.Sprintf(`SELECT shard, breaker FROM msql_stats.shards WHERE shard > %d`, i-1))
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 - i; len(res.Rows) != want {
			t.Fatalf("shard > %d: %d rows, want %d", i-1, len(res.Rows), want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if phases["parse"] != 1 || phases["bind"] != 1 || phases["shard"] != 0 {
		t.Fatalf("three statements of one local shape: %d parse, %d bind and %d shard spans, want 1, 1 and 0",
			phases["parse"], phases["bind"], phases["shard"])
	}
}

// TestStarViewBindsOnShards: a shard's tables also hold the sequence
// column, which `*` never expands, so a view that unions a `*` with the
// table's columns named one by one binds on the shards as on the
// coordinator, and answers as a single node does.
func TestStarViewBindsOnShards(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.All)
	execBoth(t, coord, oracle, `CREATE VIEW U AS SELECT * FROM Orders UNION ALL SELECT prodName, custName, orderDate, revenue, cost FROM Orders`)
	queryBoth(t, coord, oracle, `SELECT COUNT(*) AS n FROM U`)
	queryBoth(t, coord, oracle, `SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev FROM U GROUP BY prodName ORDER BY prodName`)
	queryBoth(t, coord, oracle, `SELECT * FROM U ORDER BY prodName, custName, revenue`)
}

// TestSignedZeroPartitionKeyRoutes: 0.0 = -0.0, so rows keyed by either
// zero sit on one shard, and a statement pinning the key to 0.0 routes
// there and finds both, as a single node does.
func TestSignedZeroPartitionKeyRoutes(t *testing.T) {
	coord, oracle, _ := cluster(t, 4)
	execBoth(t, coord, oracle, `CREATE TABLE Z (d DOUBLE, v INTEGER);
INSERT INTO Z VALUES (0.0, 1), (-0.0, 2), (1.5, 3)`)
	var mu sync.Mutex
	calls := map[string]int{}
	coord.SetTrace(traceFunc(func(s exec.Span) {
		if s.Phase == "shard" {
			mu.Lock()
			calls[s.Name]++
			mu.Unlock()
		}
	}))
	res := queryBoth(t, coord, oracle, `SELECT v FROM Z WHERE d = 0.0 ORDER BY v`)
	if len(res.Rows) != 2 {
		t.Fatalf("d = 0.0: %v, want the rows of both zeros", res.Rows)
	}
	queryBoth(t, coord, oracle, `SELECT v FROM Z WHERE d = -0.0 ORDER BY v`)
	mu.Lock()
	defer mu.Unlock()
	if calls["route"] != 2 || len(calls) != 1 {
		t.Fatalf("shard calls %v, want two routed reads", calls)
	}
}
