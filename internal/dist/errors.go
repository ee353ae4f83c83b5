package dist

import (
	"errors"
	"fmt"
	"sort"

	"github.com/measures-sql/msql/internal/exec"
)

// ShardUnavailableError reports that a distributed statement lost every
// endpoint of at least one shard it needed, after retries, failover,
// and hedging. The error names the shards lost so an operator can see
// exactly which partitions are dark; a query that returns it produced
// no result at all — never a silently partial one.
type ShardUnavailableError struct {
	// Shards are the indexes of the shards with no usable endpoint.
	Shards []int
	// Err is the last underlying failure observed.
	Err error
}

// Error implements error.
func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("shard(s) %v unavailable after retries, failover, and hedging: %v", e.Shards, e.Err)
}

// Unwrap exposes the last underlying failure.
func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// unavailable builds the structured taxonomy error for lost shards:
// errors.Is(err, msql.ErrUnavailable) matches, errors.As reaches the
// *ShardUnavailableError naming them.
func unavailable(shards map[int]error) error {
	idxs := make([]int, 0, len(shards))
	var last error
	for i, err := range shards {
		idxs = append(idxs, i)
		last = err
	}
	sort.Ints(idxs)
	return &exec.Error{
		Code:  exec.CodeUnavailable,
		Phase: exec.PhaseExecute,
		Pos:   -1,
		Hint:  "restart or reconnect the lost shard endpoints; the coordinator replays missed mutations on rejoin",
		Err:   &ShardUnavailableError{Shards: idxs, Err: last},
	}
}

// statementError is a shard's structured reply to the statement itself
// — a PARSE, BIND or RUNTIME error — rather than a fault of the
// endpoint: every endpoint would answer the same, so it is the
// statement's answer. callShard counts it as the endpoint's success and
// neither retries nor fails over.
type statementError struct{ err *exec.Error }

func (e *statementError) Error() string { return e.err.Error() }
func (e *statementError) Unwrap() error { return e.err }

// asStatementError marks err as a statementError when it is one. A
// catalog-version miss, RUNTIME in phase "catalog", is the endpoint's
// state, not the statement's.
func asStatementError(err error) error {
	var ee *exec.Error
	if !errors.As(err, &ee) || ee.Phase == "catalog" {
		return err
	}
	switch ee.Code {
	case exec.CodeParse, exec.CodeBind, exec.CodeRuntime:
		return &statementError{err: ee}
	}
	return err
}
