package server

import (
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wire"
)

// A reply is encoded into a pooled buffer: once warm, encoding and
// handing the buffer back allocates nothing, at 100 rows as at 1000.
func TestReplyBufferIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, n := range []int{100, 1000} {
		res := &wire.Result{Columns: []string{"i", "s"}, Types: []sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindString}}}
		for i := 0; i < n; i++ {
			res.Rows = append(res.Rows, []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString("row <name>")})
		}
		for name, frame := range map[string]func([]byte, any) ([]byte, error){"/query": appendResult, "/query.ndjson": appendStream} {
			allocs := testing.AllocsPerRun(50, func() {
				buf, err := encodeReply(frame, res)
				if err != nil {
					t.Fatal(err)
				}
				putBuffer(buf)
			})
			if allocs != 0 {
				t.Errorf("%s, %d rows: %v allocations per reply, want 0", name, n, allocs)
			}
		}
	}
}
