package dist_test

// In-process cluster tests: every shard is a real server.Server over a
// real msql.DB behind an httptest listener, and every result the
// coordinator returns is compared bit-for-bit against a single-node
// oracle session running the same statements.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// shardNode is one restartable shard process stand-in: a server over a
// fresh DB on a fixed address, so a "restart" comes back empty (catalog
// version 0) on the same URL, exactly like a crashed msqld without
// durable storage.
type shardNode struct {
	t    *testing.T
	id   string
	addr string

	mu   sync.Mutex
	srv  *httptest.Server
	db   *msql.DB
	down bool
}

func startShardNode(t *testing.T, id string) *shardNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &shardNode{t: t, id: id, addr: l.Addr().String()}
	n.startOn(l)
	t.Cleanup(n.Stop)
	return n
}

func (n *shardNode) startOn(l net.Listener) {
	db := msql.Open()
	srv := httptest.NewUnstartedServer(server.New(db, server.Config{ShardID: n.id}).Handler())
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	n.mu.Lock()
	n.srv, n.db, n.down = srv, db, false
	n.mu.Unlock()
}

func (n *shardNode) URL() string { return "http://" + n.addr }

// Stop kills the node (connections reset, state lost).
func (n *shardNode) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return
	}
	n.down = true
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.db.Close()
}

// Restart brings the node back empty on the same address.
func (n *shardNode) Restart() {
	n.Stop()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		l, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.startOn(l)
}

func testConfig(shards [][]string) dist.Config {
	return dist.Config{
		Shards:           shards,
		QueryTimeout:     10 * time.Second,
		Backoff:          client.Backoff{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 7},
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		HedgeDelay:       25 * time.Millisecond,
	}
}

// cluster spins nShards single-endpoint shards plus a coordinator and a
// single-node oracle.
func cluster(t *testing.T, nShards int) (*dist.Coordinator, *msql.DB, []*shardNode) {
	t.Helper()
	var nodes []*shardNode
	var shards [][]string
	for i := 0; i < nShards; i++ {
		n := startShardNode(t, fmt.Sprintf("shard-%d", i))
		nodes = append(nodes, n)
		shards = append(shards, []string{n.URL()})
	}
	coord, err := dist.New(testConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	oracle := msql.Open()
	t.Cleanup(func() { oracle.Close() })
	return coord, oracle, nodes
}

// execBoth applies the same statements to coordinator and oracle.
func execBoth(t *testing.T, c *dist.Coordinator, oracle *msql.DB, sql string) {
	t.Helper()
	if err := c.Exec(context.Background(), sql); err != nil {
		t.Fatalf("coordinator exec %q: %v", firstLine(sql), err)
	}
	oracle.MustExec(sql)
}

// queryBoth runs sql on both and requires bit-identical results.
func queryBoth(t *testing.T, c *dist.Coordinator, oracle *msql.DB, sql string) *msql.Result {
	t.Helper()
	got, err := c.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("coordinator query %q: %v", sql, err)
	}
	want, err := oracle.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("oracle query %q: %v", sql, err)
	}
	sameResult(t, sql, got, want)
	return got
}

func sameResult(t *testing.T, sql string, got, want *msql.Result) {
	t.Helper()
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
		t.Fatalf("%s:\ncolumns %v\nwant    %v", sql, got.Columns, want.Columns)
	}
	gt := make([]string, len(got.Types))
	for i, ty := range got.Types {
		gt[i] = ty.String()
	}
	wt := make([]string, len(want.Types))
	for i, ty := range want.Types {
		wt[i] = ty.String()
	}
	if fmt.Sprint(gt) != fmt.Sprint(wt) {
		t.Fatalf("%s:\ntypes %v\nwant  %v", sql, gt, wt)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s:\n%d rows\nwant %d rows\ngot:  %v\nwant: %v", sql, len(got.Rows), len(want.Rows), fmtRows(got), fmtRows(want))
	}
	for i := range got.Rows {
		if fmt.Sprint(got.Rows[i]) != fmt.Sprint(want.Rows[i]) {
			t.Fatalf("%s:\nrow %d = %v\nwant    %v", sql, i, got.Rows[i], want.Rows[i])
		}
	}
}

func fmtRows(r *msql.Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%v; ", row)
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + "..."
	}
	return s
}

// differentialQueries covers all four execution paths over the paper's
// dataset.
var differentialQueries = []string{
	// local (no sharded table)
	`SELECT 1 + 2 AS three`,
	// routed (partition column pinned; prodName is Orders' first column)
	`SELECT custName, revenue FROM Orders WHERE prodName = 'Happy'`,
	`SELECT COUNT(*) AS n, SUM(revenue) AS rev FROM Orders WHERE prodName = 'Happy' AND cost > 1`,
	// scatter (exactly mergeable aggregates)
	`SELECT prodName, COUNT(*) AS n, SUM(revenue) AS rev, MIN(cost) AS lo, MAX(cost) AS hi FROM Orders GROUP BY prodName`,
	`SELECT prodName, SUM(revenue) AS rev FROM Orders GROUP BY prodName ORDER BY rev DESC, prodName`,
	`SELECT custName, COUNT(*) AS n FROM Orders WHERE revenue > 3 GROUP BY custName ORDER BY n DESC, custName LIMIT 2`,
	`SELECT COUNT(*) AS n, MIN(orderDate) AS earliest, MAX(orderDate) AS latest FROM Orders`,
	`SELECT COUNT(*) AS n FROM Orders WHERE revenue > 100`,
	`SELECT prodName, SUM(revenue) - SUM(cost) AS profit FROM Orders GROUP BY prodName ORDER BY prodName`,
	// gather (AVG merge is not exact; joins; measures; DISTINCT)
	`SELECT prodName, AVG(revenue) AS avgRev FROM Orders GROUP BY prodName ORDER BY prodName`,
	`SELECT DISTINCT prodName FROM Orders ORDER BY prodName`,
	`SELECT o.prodName, c.custAge FROM Orders o JOIN Customers c ON o.custName = c.custName ORDER BY o.prodName, c.custAge`,
	`SELECT prodName, AGGREGATE(profitMargin) AS profitMargin FROM EnhancedOrders GROUP BY prodName`,
	`SELECT orderDate, AGGREGATE(profitMargin) AS m FROM EnhancedOrders WHERE prodName = 'Happy' GROUP BY orderDate ORDER BY orderDate`,
	`SELECT custName, AGGREGATE(sumRevenue) AS rev FROM OrdersWithRevenue GROUP BY custName ORDER BY custName`,
	`SELECT prodName, profitMargin FROM SummarizedOrders ORDER BY prodName, profitMargin`,
	`SELECT * FROM Orders ORDER BY revenue, prodName`,
	// an aggregate over a LIMIT: each shard's LIMIT is not the statement's
	`SELECT COUNT(*) AS n FROM (SELECT * FROM Orders LIMIT 2) AS d`,
	`SELECT prodName, COUNT(*) AS n FROM (SELECT * FROM Orders LIMIT 3) AS d GROUP BY prodName`,
}

func TestDifferentialAgainstSingleNode(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			coord, oracle, _ := cluster(t, nShards)
			execBoth(t, coord, oracle, paperdata.All)
			for _, q := range differentialQueries {
				queryBoth(t, coord, oracle, q)
			}
			// Mutate after the fact and re-verify: the replay log and the
			// global sequence keep tracking.
			execBoth(t, coord, oracle, `INSERT INTO Orders VALUES ('Acme', 'Celia', DATE '2024-01-02', 9, 3)`)
			for _, q := range differentialQueries {
				queryBoth(t, coord, oracle, q)
			}
		})
	}
}

// TestNonFiniteDoubleCrossesFromShards: a DOUBLE holding +Inf crosses
// from the shards as it is stored. Gathered statements whose answers
// hold no +Inf answer as a single node does, and so does a routed
// statement whose answer holds it.
func TestNonFiniteDoubleCrossesFromShards(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, `CREATE TABLE T (k INTEGER, x DOUBLE); INSERT INTO T VALUES (1, 1e308 * 10), (2, 1.5), (3, 2.5)`)
	queryBoth(t, coord, oracle, `SELECT DISTINCT k FROM T ORDER BY k`)
	queryBoth(t, coord, oracle, `SELECT k, AVG(x) AS a FROM T WHERE k > 1 GROUP BY k ORDER BY k`)
	got := queryBoth(t, coord, oracle, `SELECT k, x FROM T WHERE k = 1`)
	if x := got.Rows[0][1]; x.K != sqltypes.KindFloat || !math.IsInf(x.F(), 1) {
		t.Fatalf("routed +Inf answered %v", x)
	}
}

func TestInsertSpreadsAcrossShards(t *testing.T) {
	coord, oracle, nodes := cluster(t, 4)
	execBoth(t, coord, oracle, `CREATE TABLE kv (k INTEGER, v VARCHAR)`)
	var ins strings.Builder
	ins.WriteString(`INSERT INTO kv VALUES `)
	for i := 0; i < 64; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, 'v%d')", i, i)
	}
	execBoth(t, coord, oracle, ins.String())

	total := 0
	for _, n := range nodes {
		cli := client.New(n.URL())
		res, err := cli.Query(context.Background(), `SELECT COUNT(*) FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		cnt := int(asInt64(t, res.Rows[0][0]))
		if cnt == 0 {
			t.Fatalf("shard %s received no rows — hash partitioning is degenerate", n.id)
		}
		total += cnt
	}
	if total != 64 {
		t.Fatalf("shards hold %d rows in total, want 64", total)
	}
	queryBoth(t, coord, oracle, `SELECT COUNT(*) AS n, SUM(k) AS s FROM kv`)
	queryBoth(t, coord, oracle, `SELECT v FROM kv WHERE k = 17`)
}

// TestSignedZeroMinMaxMatchesSingleNode: 0 and -0 compare equal, so
// which of them MIN or MAX over DOUBLE returns depends on the order the
// values are seen in. The coordinator merges shard states in first-row
// order and a tie keeps the receiver, so a group whose rows arrive as
// 5, 0 (shard B), -0 (shard A, which also holds the first row) would
// come back -0 where a single node says 0. Such aggregates must not be
// scattered.
func TestSignedZeroMinMaxMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	coord, oracle, nodes := cluster(t, 2)
	keyOn := shardKeys(t, coord, oracle, nodes)
	a, b := keyOn[0], keyOn[1]
	execBoth(t, coord, oracle, `CREATE TABLE z (p INTEGER, g VARCHAR, x DOUBLE)`)
	execBoth(t, coord, oracle, fmt.Sprintf(`INSERT INTO z VALUES
		(%[1]d, 'lo', 5.0), (%[2]d, 'lo', 0.0), (%[1]d, 'lo', -0.0),
		(%[1]d, 'hi', -5.0), (%[2]d, 'hi', 0.0), (%[1]d, 'hi', -0.0)`, a, b))

	// Both sides really store a negative zero: the single node, and shard
	// A, which holds both negative zeros.
	negZeros := func(db *msql.DB) int {
		res, err := db.QueryContext(ctx, `SELECT x FROM z`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range res.Rows {
			if x := r[0].F(); x == 0 && math.Signbit(x) {
				n++
			}
		}
		return n
	}
	if got, want := negZeros(oracle), 2; got != want {
		t.Fatalf("single node stores %d negative zeros, want %d", got, want)
	}
	if got, want := negZeros(nodes[0].db), 2; got != want {
		t.Fatalf("shard A stores %d negative zeros, want %d", got, want)
	}

	res := queryBoth(t, coord, oracle, `SELECT g, MIN(x) AS lo, MAX(x) AS hi FROM z GROUP BY g ORDER BY g`)
	for _, r := range res.Rows {
		col := 1 // MIN for 'lo', MAX for 'hi'
		if r[0].S == "hi" {
			col = 2
		}
		if x := r[col].F(); x != 0 || math.Signbit(x) {
			t.Fatalf("group %s: coordinator answers %v, a single node 0", r[0].S, x)
		}
	}
}

// shardKeys learns an INTEGER partition key that lands on each of two
// shards.
func shardKeys(t *testing.T, coord *dist.Coordinator, oracle *msql.DB, nodes []*shardNode) [2]int64 {
	t.Helper()
	execBoth(t, coord, oracle, `CREATE TABLE probe (p INTEGER)`)
	execBoth(t, coord, oracle, `INSERT INTO probe VALUES (0), (1), (2), (3), (4), (5), (6), (7)`)
	var keyOn [2]int64
	for i, n := range nodes[:2] {
		res, err := n.db.QueryContext(context.Background(), `SELECT MIN(p) FROM probe`)
		if err != nil || res.Rows[0][0].Null {
			t.Fatalf("shard %d holds no probe row: %v", i, err)
		}
		keyOn[i] = res.Rows[0][0].I
	}
	return keyOn
}

// scatterBoth is queryBoth for a statement the coordinator must scatter
// to every shard, not gather; want, when set, is the answer rendered as
// rows of space-separated values joined by " | ".
func scatterBoth(t *testing.T, c *dist.Coordinator, oracle *msql.DB, shards int, sql, want string) {
	t.Helper()
	before := dist.Scatters(c)
	res := queryBoth(t, c, oracle, sql)
	if got := dist.Scatters(c) - before; got != int64(shards) {
		t.Fatalf("%s: %d scatter calls, want %d", sql, got, shards)
	}
	if want == "" {
		return
	}
	var rows []string
	for _, r := range res.Rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, v.String())
		}
		rows = append(rows, strings.Join(cells, " "))
	}
	if got := strings.Join(rows, " | "); got != want {
		t.Fatalf("%s:\ngot  %s\nwant %s", sql, got, want)
	}
}

// TestScatterMergesGroupsAsOneNode: a scattered statement's groups are
// found as a single node finds them, by key equality rather than by the
// bytes a shard sent, and take their key values and order from their
// first row: keys of different kinds that compare equal (1 and 1.0) are
// one group, whichever shard holds its first row; NULL keys are one
// group; a shard with no rows or no qualifying rows adds nothing, and a
// keyless aggregate over no qualifying rows answers its empty-input row.
// Every statement scatters, and every answer is the single node's.
func TestScatterMergesGroupsAsOneNode(t *testing.T) {
	t.Run("equal keys of different kinds", func(t *testing.T) {
		coord, oracle, nodes := cluster(t, 2)
		execBoth(t, coord, oracle, `CREATE TABLE T (a INTEGER, x INTEGER);
INSERT INTO T VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
		held := 0
		for _, n := range nodes {
			res, err := n.db.QueryContext(context.Background(), `SELECT COUNT(*) FROM T`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].I > 0 {
				held++
			}
		}
		if held != 2 {
			t.Fatalf("the rows sit on %d shards, want both", held)
		}
		scatterBoth(t, coord, oracle, 2, `SELECT CASE WHEN a = 1 THEN 1 ELSE 1.0 END AS k, COUNT(*) AS n, SUM(x) AS s
FROM T GROUP BY CASE WHEN a = 1 THEN 1 ELSE 1.0 END`, "1 4 100")
	})

	coord, oracle, nodes := cluster(t, 2)
	on := shardKeys(t, coord, oracle, nodes)
	execBoth(t, coord, oracle, `CREATE TABLE G (p INTEGER, g VARCHAR, x INTEGER)`)
	// A group's first row on the second shard, then on the first; a
	// NULL key on both; a group on one shard only.
	execBoth(t, coord, oracle, fmt.Sprintf(`INSERT INTO G VALUES
		(%[2]d, 'b', 1), (%[1]d, 'a', 2), (%[1]d, 'b', 3), (%[2]d, 'a', 4),
		(%[1]d, NULL, 5), (%[2]d, NULL, 6), (%[2]d, 'c', 7), (%[1]d, 'b', NULL)`, on[0], on[1]))
	for _, q := range []struct{ sql, want string }{
		{`SELECT g, COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi FROM G GROUP BY g`,
			"b 3 2 4 1 3 | a 2 2 6 2 4 | NULL 2 2 11 5 6 | c 1 1 7 7 7"},
		{`SELECT CASE WHEN p = ` + fmt.Sprint(on[1]) + ` THEN 1.0 ELSE 1 END AS k, COUNT(*) AS n FROM G GROUP BY CASE WHEN p = ` + fmt.Sprint(on[1]) + ` THEN 1.0 ELSE 1 END`,
			"1.0 8"},
		{`SELECT g, SUM(x) AS s FROM G WHERE p = ` + fmt.Sprint(on[0]) + ` OR p = ` + fmt.Sprint(on[0]) + ` GROUP BY g ORDER BY g DESC LIMIT 2`, ""},
		{`SELECT COUNT(*) AS n, SUM(x) AS s, MIN(g) AS lo FROM G WHERE x > 100`, "0 NULL NULL"},
		{`SELECT g, COUNT(*) AS n FROM G WHERE x > 100 GROUP BY g`, ""},
		{`SELECT COUNT(*) AS n, MAX(x) AS hi FROM G`, "8 7"},
	} {
		scatterBoth(t, coord, oracle, 2, q.sql, q.want)
	}

	t.Run("one empty shard", func(t *testing.T) {
		execBoth(t, coord, oracle, fmt.Sprintf(`CREATE TABLE E (p INTEGER, g VARCHAR, x INTEGER);
INSERT INTO E VALUES (%[1]d, 'a', 1), (%[1]d, 'b', 2), (%[1]d, 'a', NULL)`, on[1]))
		scatterBoth(t, coord, oracle, 2, `SELECT g, COUNT(*) AS n, SUM(x) AS s FROM E GROUP BY g`, "a 2 1 | b 1 2")
		scatterBoth(t, coord, oracle, 2, `SELECT COUNT(*) AS n, SUM(x) AS s FROM E`, "3 3")
	})

	// ANY_VALUE skips NULLs, so a piece whose first row is NULL does not
	// hold the group's first value: a single node answers 8 here, while
	// merging the pieces in first-row order would answer 9. Such a
	// statement is not scattered.
	t.Run("ANY_VALUE after a NULL first row", func(t *testing.T) {
		execBoth(t, coord, oracle, fmt.Sprintf(`CREATE TABLE A (p INTEGER, g VARCHAR, x INTEGER);
INSERT INTO A VALUES (%[1]d, 'n', NULL), (%[2]d, 'n', 8), (%[1]d, 'n', 9)`, on[0], on[1]))
		if got := queryBoth(t, coord, oracle, `SELECT g, ANY_VALUE(x) AS v FROM A GROUP BY g`); got.Rows[0][1].I != 8 {
			t.Fatalf("ANY_VALUE = %v, want 8", got.Rows[0][1])
		}
	})

	t.Run("more than one block of groups", func(t *testing.T) {
		var ins strings.Builder
		ins.WriteString(`CREATE TABLE M (p INTEGER, g INTEGER, x INTEGER); INSERT INTO M VALUES `)
		for i := 0; i < 3000; i++ {
			if i > 0 {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d, %d)", on[i%2], (i*7919)%1500, i)
		}
		execBoth(t, coord, oracle, ins.String())
		scatterBoth(t, coord, oracle, 2, `SELECT g, COUNT(*) AS n, SUM(x) AS s, MIN(x) AS lo FROM M GROUP BY g`, "")
		scatterBoth(t, coord, oracle, 2, `SELECT g, SUM(x) AS s FROM M WHERE x > 1000 GROUP BY g ORDER BY s DESC, g LIMIT 5`, "")
	})
}

func asInt64(t *testing.T, v any) int64 {
	t.Helper()
	switch x := v.(type) {
	case float64:
		return int64(x)
	case int64:
		return x
	default:
		t.Fatalf("unexpected count type %T", v)
		return 0
	}
}

func TestPartitionColumnOverride(t *testing.T) {
	n0 := startShardNode(t, "s0")
	n1 := startShardNode(t, "s1")
	cfg := testConfig([][]string{{n0.URL()}, {n1.URL()}})
	cfg.PartitionCols = map[string]string{"orders": "custName"}
	coord, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	oracle := msql.Open()
	defer oracle.Close()
	execBoth(t, coord, oracle, paperdata.Schema)
	// Pinning prodName no longer routes (it is not the partition column)
	// but stays correct; pinning custName routes.
	queryBoth(t, coord, oracle, `SELECT custName, revenue FROM Orders WHERE prodName = 'Happy'`)
	queryBoth(t, coord, oracle, `SELECT prodName, revenue FROM Orders WHERE custName = 'Alice'`)
	queryBoth(t, coord, oracle, `SELECT custName, SUM(revenue) AS rev FROM Orders GROUP BY custName ORDER BY custName`)
}

func TestStructuredUnavailableError(t *testing.T) {
	coord, oracle, nodes := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.Schema)
	nodes[1].Stop()

	_, err := coord.Query(context.Background(), `SELECT prodName, COUNT(*) FROM Orders GROUP BY prodName`)
	if err == nil {
		t.Fatal("query over a dead shard returned a result")
	}
	if !errors.Is(err, msql.ErrUnavailable) {
		t.Fatalf("error is not ErrUnavailable: %v", err)
	}
	var su *dist.ShardUnavailableError
	if !errors.As(err, &su) {
		t.Fatalf("error carries no *ShardUnavailableError: %v", err)
	}
	if len(su.Shards) != 1 || su.Shards[0] != 1 {
		t.Fatalf("lost shards = %v, want [1]", su.Shards)
	}

	// Queries that avoid the dead shard still answer: local...
	if _, err := coord.Query(context.Background(), `SELECT 41 + 1`); err != nil {
		t.Fatalf("local query: %v", err)
	}
	// ...and the virtual health table reports the breaker's state.
	res, err := coord.Query(context.Background(),
		`SELECT breaker FROM msql_stats.shards WHERE shard = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("shards vtable rows = %d, want 1", len(res.Rows))
	}
}

func TestBreakerOpensThenRejoins(t *testing.T) {
	coord, oracle, nodes := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.Schema)
	queryBoth(t, coord, oracle, `SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`)

	nodes[1].Stop()
	// Hammer until the breaker opens (threshold 2).
	for i := 0; i < 4; i++ {
		coord.Query(context.Background(), `SELECT COUNT(*) FROM Orders`)
	}
	res, err := coord.Query(context.Background(),
		`SELECT breaker FROM msql_stats.shards WHERE shard = 1`)
	if err != nil {
		t.Fatal(err)
	}
	state := fmt.Sprint(res.Rows[0][0])
	if !strings.Contains(state, "open") {
		t.Fatalf("breaker state after repeated failures = %q, want open", state)
	}

	// Restart empty: the coordinator must notice version 0 < cursor,
	// replay the log, and answer exactly again — transparently, after
	// the cooldown admits a probe.
	nodes[1].Restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = coord.Query(context.Background(), `SELECT COUNT(*) FROM Orders`)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never rejoined: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, q := range []string{
		`SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`,
		`SELECT * FROM Orders ORDER BY revenue, prodName`,
	} {
		queryBoth(t, coord, oracle, q)
	}
	if !strings.Contains(coord.Local().Metrics().Prometheus(), "msql_shard_breaker_open_total") {
		t.Fatal("breaker-open counter missing from Prometheus exposition")
	}
}

func TestReplicaFailover(t *testing.T) {
	primary := startShardNode(t, "s0-a")
	replica := startShardNode(t, "s0-b")
	coord, err := dist.New(testConfig([][]string{{primary.URL(), replica.URL()}}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	oracle := msql.Open()
	defer oracle.Close()
	execBoth(t, coord, oracle, paperdata.Schema)

	primary.Stop()
	for _, q := range []string{
		`SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`,
		`SELECT custName FROM Orders WHERE prodName = 'Whizz'`,
		`SELECT * FROM Orders ORDER BY revenue`,
	} {
		queryBoth(t, coord, oracle, q)
	}
	// Mutations keep working against the replica and replay to the
	// primary when it returns.
	execBoth(t, coord, oracle, `INSERT INTO Orders VALUES ('Whizz', 'Bob', DATE '2024-05-05', 8, 2)`)
	queryBoth(t, coord, oracle, `SELECT COUNT(*) AS n FROM Orders`)

	primary.Restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := coord.Query(context.Background(),
			`SELECT pending FROM msql_stats.shards WHERE role = 'primary'`)
		if err == nil && len(res.Rows) == 1 && fmt.Sprint(res.Rows[0][0]) == "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted primary never caught up")
		}
		// Any query syncs lagging endpoints as a side effect.
		coord.Query(context.Background(), `SELECT COUNT(*) FROM Orders`)
		time.Sleep(20 * time.Millisecond)
	}
	prom := coord.Local().Metrics().Prometheus()
	if !strings.Contains(prom, "msql_shard_failovers_total") {
		t.Fatal("failover counter missing from Prometheus exposition")
	}
}

func TestHedgingToReplica(t *testing.T) {
	// A primary that answers reads slowly (but correctly) should lose
	// the hedge race to the replica without any error surfacing.
	slowDB := msql.Open()
	defer slowDB.Close()
	slowInner := server.New(slowDB, server.Config{ShardID: "slow"}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" || r.URL.Path == "/partial" {
			time.Sleep(300 * time.Millisecond)
		}
		slowInner.ServeHTTP(w, r)
	}))
	defer slow.Close()
	fast := startShardNode(t, "fast")

	cfg := testConfig([][]string{{slow.URL, fast.URL()}})
	cfg.HedgeDelay = 10 * time.Millisecond
	coord, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	oracle := msql.Open()
	defer oracle.Close()
	execBoth(t, coord, oracle, paperdata.Schema)

	start := time.Now()
	queryBoth(t, coord, oracle, `SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`)
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("hedged query took %v — the slow primary held the tail hostage", d)
	}
	res, err := coord.Query(context.Background(), `SELECT SUM(hedges) FROM msql_stats.shards`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows[0][0]) == "0" {
		t.Fatal("no hedged request was recorded")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.Schema)

	var mu sync.Mutex
	ids := map[string]bool{}
	coord.SetTrace(traceFunc(func(s exec.Span) {
		if s.Phase == "shard" {
			mu.Lock()
			ids[s.Attrs["request_id"]] = true
			mu.Unlock()
		}
	}))
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"sql": "SELECT prodName, COUNT(*) AS n FROM Orders GROUP BY prodName"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", body)
	req.Header.Set("X-Request-Id", "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-abc-123" {
		t.Fatalf("response X-Request-Id = %q, want req-abc-123", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ids["req-abc-123"] {
		t.Fatalf("no shard span carried the request ID; saw %v", ids)
	}
}

type traceFunc func(exec.Span)

func (f traceFunc) Span(s exec.Span) { f(s) }

func TestCoordinatorHTTPSurface(t *testing.T) {
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, paperdata.All)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// The stock client speaks to a coordinator exactly as to a node.
	cli := client.New(ts.URL)
	res, err := cli.Query(context.Background(),
		`SELECT prodName, AGGREGATE(profitMargin) AS profitMargin FROM EnhancedOrders GROUP BY prodName`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("listing 3 over HTTP returned %d rows, want 3", len(res.Rows))
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/metrics.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestReservedColumnRejected(t *testing.T) {
	coord, _, _ := cluster(t, 2)
	err := coord.Exec(context.Background(), `CREATE TABLE bad (__mseq INTEGER)`)
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved column create = %v, want reserved-name error", err)
	}
}

func TestConcurrentScatterQueries(t *testing.T) {
	coord, oracle, _ := cluster(t, 4)
	execBoth(t, coord, oracle, paperdata.All)
	want, err := oracle.QueryContext(context.Background(),
		`SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := coord.Query(context.Background(),
				`SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName`)
			if err != nil {
				errs <- err
				return
			}
			if len(got.Rows) != len(want.Rows) {
				errs <- fmt.Errorf("got %d rows, want %d", len(got.Rows), len(want.Rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardMetricsCountPartialReads: a shard's /partial fold is a query
// of that shard, counted in its metrics as a routed /rows read is: one
// scattered GROUP BY moves each shard's query count by one and their
// scanned rows by the table's.
func TestShardMetricsCountPartialReads(t *testing.T) {
	ctx := context.Background()
	coord, _, nodes := cluster(t, 2)
	if err := coord.Exec(ctx, `CREATE TABLE T (k INTEGER, v INTEGER);
INSERT INTO T VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)`); err != nil {
		t.Fatal(err)
	}
	metrics := func() []msql.MetricsSnapshot {
		var out []msql.MetricsSnapshot
		for _, n := range nodes {
			out = append(out, n.db.Metrics())
		}
		return out
	}
	before, scatters := metrics(), dist.Scatters(coord)
	if _, err := coord.Query(ctx, `SELECT k, SUM(v) AS s FROM T GROUP BY k`); err != nil {
		t.Fatal(err)
	}
	if got := dist.Scatters(coord) - scatters; got != 2 {
		t.Fatalf("%d scatter calls, want 2", got)
	}
	scanned := int64(0)
	for i, after := range metrics() {
		if got := after.Queries - before[i].Queries; got != 1 {
			t.Errorf("shard %d counted %d queries for its partial fold, want 1", i, got)
		}
		scanned += after.RowsScanned - before[i].RowsScanned
	}
	if scanned != 6 {
		t.Errorf("the shards counted %d scanned rows, want 6", scanned)
	}
}

// TestFleetInsertAnswersAsASingleNode: the coordinator prepares an
// INSERT's rows with the engine's own INSERT, so on two shards every
// statement fails with the error code and message a single node gives,
// or inserts the rows a single node inserts.
func TestFleetInsertAnswersAsASingleNode(t *testing.T) {
	ctx := context.Background()
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, `CREATE TABLE T (k INTEGER, v VARCHAR, x DOUBLE)`)
	for _, sql := range []string{
		`INSERT INTO T (k, nosuch) VALUES (1, 2)`,
		`INSERT INTO T VALUES (1, 'a')`,
		`INSERT INTO T (k, v) VALUES (1, 'a', 2.5)`,
		`INSERT INTO U VALUES (1)`,
		`INSERT INTO T VALUES ('x', 'a', 1.0)`,
		`INSERT INTO T VALUES (1.5, 'a', 1.0)`,
		`INSERT INTO T VALUES (1, 'a', 1.5), (2, 'b', 2)`,
		`INSERT INTO T (x, k) VALUES (2.5, 7), (NULL, 8)`,
		`INSERT INTO T SELECT k + 10, v, x FROM T WHERE k > 1`,
	} {
		gotRes, gotErr := coord.RunContext(ctx, sql)
		wantRes, wantErr := oracle.RunContext(ctx, sql)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s:\nfleet error  %v\nsingle node  %v", sql, gotErr, wantErr)
		}
		if wantErr == nil {
			if got, want := gotRes[0].Message, wantRes[0].Message; got != want {
				t.Errorf("%s:\nfleet        %q\nsingle node  %q", sql, got, want)
			}
			continue
		}
		var got, want *exec.Error
		if !errors.As(gotErr, &got) || !errors.As(wantErr, &want) {
			t.Fatalf("%s: unstructured error: fleet %v, single node %v", sql, gotErr, wantErr)
		}
		if got.Code != want.Code || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s:\nfleet        %s %q\nsingle node  %s %q", sql, got.Code, gotErr, want.Code, wantErr)
		}
	}
	queryBoth(t, coord, oracle, `SELECT k, v, x FROM T ORDER BY k`)
}

// A sharded table's rows live on the shards, which keep them in insertion
// sequence: a TRUNCATE through the coordinator is refused before it
// touches anything, and every row inserted stays. A TRUNCATE of a table
// that does not exist fails as on a single node.
func TestFleetTruncateIsRefused(t *testing.T) {
	ctx := context.Background()
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, `CREATE TABLE T (k INTEGER, v INTEGER)`)
	execBoth(t, coord, oracle, `INSERT INTO T VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	err := coord.Exec(ctx, `TRUNCATE TABLE T`)
	var e *exec.Error
	if !errors.As(err, &e) || e.Code != exec.CodeBind || !strings.Contains(err.Error(), "TRUNCATE") {
		t.Fatalf("fleet TRUNCATE = %v, want a BIND error refusing it", err)
	}
	queryBoth(t, coord, oracle, `SELECT COUNT(*) AS n, SUM(v) AS s FROM T`)

	gotErr, wantErr := coord.Exec(ctx, `TRUNCATE TABLE U`), oracle.ExecContext(ctx, `TRUNCATE TABLE U`)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("TRUNCATE of an unknown table:\nfleet        %v\nsingle node  %v", gotErr, wantErr)
	}
}
