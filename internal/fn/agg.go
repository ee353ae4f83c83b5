package fn

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strings"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// AggState accumulates one group's values for one aggregate call.
// Add is called once per qualifying input row (NULL-skipping and
// DISTINCT de-duplication are handled by the executor); Result returns
// the aggregate value for the group.
//
// The args slice Add is handed belongs to the caller and may alias an
// input row or a reused buffer: it is overwritten after Add returns. A
// state copies what it keeps (a Value is copied by assignment) and never
// retains or writes the slice.
//
// Merge folds another state of the same concrete type into the receiver.
// The other state must have been accumulated over a later, disjoint
// slice of the group's input rows; merging partial states left-to-right
// in input order is then equivalent to single-pass accumulation. The
// parallel executor uses this for two-phase (per-chunk, then merge)
// hash aggregation.
type AggState interface {
	Add(args []sqltypes.Value) error
	Merge(other AggState) error
	Result() sqltypes.Value
}

// Agg describes an aggregate function.
type Agg struct {
	Name    string
	MinArgs int
	MaxArgs int
	// Star reports whether the function may be called as f(*): only COUNT.
	Star bool
	// SkipNulls: rows where the first argument is NULL are not passed to
	// Add (SQL default for COUNT(x)/SUM/AVG/...).
	SkipNulls bool
	// Ret computes the result type from argument types ([] for COUNT(*)).
	Ret func(args []sqltypes.Type) (sqltypes.Type, error)
	// New creates a fresh accumulator for a group.
	New func(args []sqltypes.Type) AggState
	// NewBlock fills dst[0], dst[stride], dst[2*stride], … with fresh
	// accumulators, all carved from one allocation: a table that makes
	// the states of many groups at once allocates per block, not per
	// group.
	NewBlock func(args []sqltypes.Type, dst []AggState, stride int)
	// ExactMerge reports whether two-phase accumulation (per-chunk states
	// combined with Merge) reproduces single-pass accumulation
	// bit-for-bit for the given argument types. It is false for
	// floating-point accumulators, where addition order matters; the
	// executor then falls back to a group-partitioned parallel plan that
	// keeps each group's rows in input order. nil means false.
	ExactMerge func(args []sqltypes.Type) bool
}

// MergesExactly reports ExactMerge for the given argument types,
// treating a nil ExactMerge as "never exact" (the order-sensitive
// float accumulators leave it unset).
func (a *Agg) MergesExactly(args []sqltypes.Type) bool {
	return a.ExactMerge != nil && a.ExactMerge(args)
}

// MergesInterleaved reports whether merging states accumulated over
// interleaved, not contiguous, subsets of a group's rows — finer lattice
// groups derived into a coarser one, one partial state per shard —
// reproduces single-pass accumulation bit for bit, provided the states
// are merged in ascending order of their first row. That is stronger
// than MergesExactly. COUNT and non-float SUM commute (modulo overflow,
// as for MergesExactly); non-float MIN/MAX ties are value-identical. A
// float MIN/MAX tie is not value-identical (0 and -0 compare equal), so
// the merge order would pick which survives; ARG_MAX/ARG_MIN break ties
// by row order; float accumulation is order-sensitive outright; and
// ANY_VALUE keeps the first non-NULL value, whose row a state's first
// row does not place: a piece whose first row is NULL may hold a later
// value than a piece that starts after it.
func (a *Agg) MergesInterleaved(args []sqltypes.Type) bool {
	switch a.Name {
	case "COUNT":
		return true
	case "SUM", "MIN", "MAX":
		return len(args) > 0 && args[0].Kind != sqltypes.KindFloat
	default:
		return false
	}
}

var aggs = map[string]*Agg{}

// LookupAgg finds an aggregate by (case-insensitive) name.
func LookupAgg(name string) (*Agg, bool) {
	a, ok := aggs[strings.ToUpper(name)]
	return a, ok
}

// IsAggName reports whether name is a registered aggregate function.
func IsAggName(name string) bool {
	_, ok := LookupAgg(name)
	return ok
}

// registerAgg registers a, whose states are the T init makes: New
// allocates one, NewBlock a block of them.
func registerAgg[T any, P interface {
	*T
	AggState
}](a *Agg, init func(args []sqltypes.Type) T) {
	a.New = func(args []sqltypes.Type) AggState {
		s := init(args)
		return P(&s)
	}
	a.NewBlock = func(args []sqltypes.Type, dst []AggState, stride int) {
		blk := make([]T, (len(dst)+stride-1)/stride)
		s := init(args)
		for k := range blk {
			blk[k] = s
			dst[k*stride] = P(&blk[k])
		}
	}
	aggs[a.Name] = a
}

// ---------------------------------------------------------------------------
// States

// mergeTypeError reports an executor bug: partial states of two
// different concrete types were merged.
func mergeTypeError(dst, src AggState) error {
	return fmt.Errorf("internal error: cannot merge aggregate state %T into %T", src, dst)
}

type countState struct{ n int64 }

func (s *countState) Add([]sqltypes.Value) error { s.n++; return nil }
func (s *countState) Result() sqltypes.Value     { return sqltypes.NewInt(s.n) }

func (s *countState) Merge(other AggState) error {
	o, ok := other.(*countState)
	if !ok {
		return mergeTypeError(s, other)
	}
	s.n += o.n
	return nil
}

type sumState struct {
	kind   sqltypes.Kind
	any    bool
	intSum int64
	fltSum float64
}

func (s *sumState) Add(args []sqltypes.Value) error {
	s.any = true
	if s.kind == sqltypes.KindInt {
		return s.addInt(args[0].I)
	}
	s.fltSum += args[0].AsFloat()
	return nil
}

// addInt accumulates with an overflow check: a hostile or runaway SUM
// over INTEGER must error rather than silently wrap.
func (s *sumState) addInt(v int64) error {
	sum := s.intSum + v
	if (s.intSum > 0 && v > 0 && sum < 0) || (s.intSum < 0 && v < 0 && sum >= 0) {
		return fmt.Errorf("INTEGER overflow in SUM")
	}
	s.intSum = sum
	return nil
}

func (s *sumState) Merge(other AggState) error {
	o, ok := other.(*sumState)
	if !ok {
		return mergeTypeError(s, other)
	}
	if !o.any {
		return nil
	}
	s.any = true
	if s.kind == sqltypes.KindInt {
		if err := s.addInt(o.intSum); err != nil {
			return err
		}
	}
	s.fltSum += o.fltSum
	return nil
}

func (s *sumState) Result() sqltypes.Value {
	if !s.any {
		return sqltypes.Null(s.kind)
	}
	if s.kind == sqltypes.KindInt {
		return sqltypes.NewInt(s.intSum)
	}
	return sqltypes.NewFloat(s.fltSum)
}

// avgState accumulates AVG. Over DOUBLE it keeps a running float sum,
// which is order-sensitive. Over INTEGER it keeps the exact sum in two
// words (hi:lo, a 128-bit two's-complement integer) and rounds once, in
// Result: states then merge exactly in any split, and the mean is the
// correctly rounded quotient — the value a float sum gives whenever that
// sum was exact (|sum| < 2^53), independent of row order beyond it.
type avgState struct {
	n   int64
	sum float64
	// exact: the argument is INTEGER and hi:lo holds its sum.
	exact bool
	hi    int64
	lo    uint64
}

func (s *avgState) Add(args []sqltypes.Value) error {
	s.n++
	if s.exact {
		s.addExact(args[0].I>>63, uint64(args[0].I))
		return nil
	}
	s.sum += args[0].AsFloat()
	return nil
}

// addExact adds the 128-bit integer hi:lo to the exact sum.
func (s *avgState) addExact(hi int64, lo uint64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, lo, 0)
	s.hi += hi + int64(carry)
}

func (s *avgState) Merge(other AggState) error {
	o, ok := other.(*avgState)
	if !ok || o.exact != s.exact {
		return mergeTypeError(s, other)
	}
	s.n += o.n
	if s.exact {
		s.addExact(o.hi, o.lo)
		return nil
	}
	s.sum += o.sum
	return nil
}

func (s *avgState) Result() sqltypes.Value {
	if s.n == 0 {
		return sqltypes.Null(sqltypes.KindFloat)
	}
	if !s.exact {
		return sqltypes.NewFloat(s.sum / float64(s.n))
	}
	// A sum within ±2^53 converts exactly, and IEEE division rounds the
	// quotient correctly; beyond that the quotient is rounded from the
	// exact rational.
	if v := int64(s.lo); s.hi == v>>63 && v >= -1<<53 && v <= 1<<53 {
		return sqltypes.NewFloat(float64(v) / float64(s.n))
	}
	num := new(big.Int).Lsh(big.NewInt(s.hi), 64)
	num.Add(num, new(big.Int).SetUint64(s.lo))
	f, _ := new(big.Rat).SetFrac(num, big.NewInt(s.n)).Float64()
	return sqltypes.NewFloat(f)
}

type minMaxState struct {
	wantLess bool
	best     sqltypes.Value
	any      bool
}

func (s *minMaxState) Add(args []sqltypes.Value) error {
	if !s.any {
		s.best, s.any = args[0], true
		return nil
	}
	c, err := sqltypes.Compare(args[0], s.best)
	if err != nil {
		return err
	}
	if (c < 0) == s.wantLess && c != 0 {
		s.best = args[0]
	}
	return nil
}

func (s *minMaxState) Merge(other AggState) error {
	o, ok := other.(*minMaxState)
	if !ok {
		return mergeTypeError(s, other)
	}
	if !o.any {
		return nil
	}
	if !s.any {
		s.best, s.any = o.best, true
		return nil
	}
	c, err := sqltypes.Compare(o.best, s.best)
	if err != nil {
		return err
	}
	// Ties keep the receiver's (earlier) value, matching Add.
	if (c < 0) == s.wantLess && c != 0 {
		s.best = o.best
	}
	return nil
}

func (s *minMaxState) Result() sqltypes.Value {
	if !s.any {
		return sqltypes.Null(s.best.K)
	}
	return s.best
}

// varState implements Welford's online algorithm for variance.
type varState struct {
	n        int64
	mean, m2 float64
	sample   bool
	stddev   bool
}

func (s *varState) Add(args []sqltypes.Value) error {
	s.n++
	x := args[0].AsFloat()
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	return nil
}

// Merge combines two Welford partial states (Chan et al.'s parallel
// update). Not bit-identical to sequential Add, so ExactMerge is false.
func (s *varState) Merge(other AggState) error {
	o, ok := other.(*varState)
	if !ok {
		return mergeTypeError(s, other)
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 {
		s.n, s.mean, s.m2 = o.n, o.mean, o.m2
		return nil
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.mean += d * float64(o.n) / float64(n)
	s.n = n
	return nil
}

func (s *varState) Result() sqltypes.Value {
	den := float64(s.n)
	if s.sample {
		den = float64(s.n - 1)
	}
	if s.n == 0 || den <= 0 {
		return sqltypes.Null(sqltypes.KindFloat)
	}
	v := s.m2 / den
	if s.stddev {
		v = math.Sqrt(v)
	}
	return sqltypes.NewFloat(v)
}

type anyValueState struct {
	val sqltypes.Value
	any bool
}

func (s *anyValueState) Add(args []sqltypes.Value) error {
	if !s.any {
		s.val, s.any = args[0], true
	}
	return nil
}

func (s *anyValueState) Merge(other AggState) error {
	o, ok := other.(*anyValueState)
	if !ok {
		return mergeTypeError(s, other)
	}
	if !s.any && o.any {
		s.val, s.any = o.val, true
	}
	return nil
}

func (s *anyValueState) Result() sqltypes.Value { return s.val }

// argExtremeState implements ARG_MAX(x, y) / ARG_MIN(x, y): the value of
// x at the extreme y. Used for semi-additive measures (paper §5.3:
// inventory rolls up with LAST_VALUE over time — ARG_MAX(qty, date)).
type argExtremeState struct {
	wantLess bool
	bestKey  sqltypes.Value
	val      sqltypes.Value
	any      bool
}

func (s *argExtremeState) Add(args []sqltypes.Value) error {
	x, y := args[0], args[1]
	if y.Null {
		// A row with no ordering value has no rank: skipped, as a NULL
		// first argument already is (SkipNulls).
		return nil
	}
	if !s.any {
		s.val, s.bestKey, s.any = x, y, true
		return nil
	}
	c, err := sqltypes.Compare(y, s.bestKey)
	if err != nil {
		return err
	}
	if (c < 0) == s.wantLess && c != 0 {
		s.val, s.bestKey = x, y
	}
	return nil
}

func (s *argExtremeState) Merge(other AggState) error {
	o, ok := other.(*argExtremeState)
	if !ok {
		return mergeTypeError(s, other)
	}
	if !o.any {
		return nil
	}
	if !s.any {
		s.val, s.bestKey, s.any = o.val, o.bestKey, true
		return nil
	}
	c, err := sqltypes.Compare(o.bestKey, s.bestKey)
	if err != nil {
		return err
	}
	// Ties keep the receiver's (earlier) value, matching Add.
	if (c < 0) == s.wantLess && c != 0 {
		s.val, s.bestKey = o.val, o.bestKey
	}
	return nil
}

func (s *argExtremeState) Result() sqltypes.Value {
	if !s.any {
		return sqltypes.Null(s.val.K)
	}
	return s.val
}

// ---------------------------------------------------------------------------
// Registration

// alwaysExact is the ExactMerge of order-insensitive, non-float states.
func alwaysExact([]sqltypes.Type) bool { return true }

func init() {
	registerAgg(&Agg{
		Name: "COUNT", MinArgs: 0, MaxArgs: 1, Star: true, SkipNulls: true,
		Ret:        func([]sqltypes.Type) (sqltypes.Type, error) { return sqltypes.Type{Kind: sqltypes.KindInt}, nil },
		ExactMerge: alwaysExact,
	}, func([]sqltypes.Type) countState { return countState{} })
	registerAgg(&Agg{
		Name: "SUM", MinArgs: 1, MaxArgs: 1, SkipNulls: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if err := argNumeric(args, "SUM"); err != nil {
				return sqltypes.Type{}, err
			}
			if args[0].Kind == sqltypes.KindFloat {
				return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
			}
			return sqltypes.Type{Kind: sqltypes.KindInt}, nil
		},
		// Integer sums are associative; float sums are order-sensitive.
		ExactMerge: func(args []sqltypes.Type) bool {
			return len(args) == 0 || args[0].Kind != sqltypes.KindFloat
		},
	}, func(args []sqltypes.Type) sumState {
		kind := sqltypes.KindInt
		if len(args) > 0 && args[0].Kind == sqltypes.KindFloat {
			kind = sqltypes.KindFloat
		}
		return sumState{kind: kind}
	})
	registerAgg(&Agg{
		Name: "AVG", MinArgs: 1, MaxArgs: 1, SkipNulls: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if err := argNumeric(args, "AVG"); err != nil {
				return sqltypes.Type{}, err
			}
			return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
		},
		// An INTEGER mean is folded exactly and rounded once; a DOUBLE
		// mean is order-sensitive.
		ExactMerge: avgExact,
	}, func(args []sqltypes.Type) avgState { return avgState{exact: avgExact(args)} })
	minMax := func(name string, wantLess bool) {
		registerAgg(&Agg{
			Name: name, MinArgs: 1, MaxArgs: 1, SkipNulls: true,
			Ret:        func(args []sqltypes.Type) (sqltypes.Type, error) { return args[0].Scalar(), nil },
			ExactMerge: alwaysExact,
		}, func([]sqltypes.Type) minMaxState { return minMaxState{wantLess: wantLess} })
	}
	minMax("MIN", true)
	minMax("MAX", false)
	variance := func(name string, sample, stddev bool) {
		registerAgg(&Agg{
			Name: name, MinArgs: 1, MaxArgs: 1, SkipNulls: true,
			Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
				if err := argNumeric(args, name); err != nil {
					return sqltypes.Type{}, err
				}
				return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
			},
		}, func([]sqltypes.Type) varState { return varState{sample: sample, stddev: stddev} })
	}
	variance("VAR_POP", false, false)
	variance("VAR_SAMP", true, false)
	variance("VARIANCE", true, false)
	variance("STDDEV_POP", false, true)
	variance("STDDEV_SAMP", true, true)
	variance("STDDEV", true, true)
	registerAgg(&Agg{
		Name: "ANY_VALUE", MinArgs: 1, MaxArgs: 1, SkipNulls: true,
		Ret:        func(args []sqltypes.Type) (sqltypes.Type, error) { return args[0].Scalar(), nil },
		ExactMerge: alwaysExact,
	}, func([]sqltypes.Type) anyValueState { return anyValueState{} })
	argExtreme := func(name string, wantLess bool) {
		registerAgg(&Agg{
			Name: name, MinArgs: 2, MaxArgs: 2, SkipNulls: true,
			Ret:        func(args []sqltypes.Type) (sqltypes.Type, error) { return args[0].Scalar(), nil },
			ExactMerge: alwaysExact,
		}, func([]sqltypes.Type) argExtremeState { return argExtremeState{wantLess: wantLess} })
	}
	argExtreme("ARG_MAX", false)
	argExtreme("ARG_MIN", true)
}

// avgExact reports whether AVG over args keeps an exact integer sum.
func avgExact(args []sqltypes.Type) bool {
	return len(args) > 0 && args[0].Kind == sqltypes.KindInt
}

// CheckAggArity validates an aggregate call's argument count.
func CheckAggArity(a *Agg, nargs int, star bool) error {
	if star {
		if !a.Star {
			return fmt.Errorf("%s(*) is not valid", a.Name)
		}
		return nil
	}
	if nargs < a.MinArgs || nargs > a.MaxArgs {
		return fmt.Errorf("%s expects %d to %d arguments, got %d", a.Name, a.MinArgs, a.MaxArgs, nargs)
	}
	return nil
}
