package plan

// Pinned-key evaluation contexts. A measure, a correlated aggregate
// subquery and OVER are three spellings of one computation (paper §5.1):
// aggregate the base rows whose key equals a value fixed for the
// evaluation context — in Data Cube terms, the coordinate tuple that
// addresses a cell. The binder emits such a context as a conjunction of
// key terms; SplitKeyTerms is the one place that reads them back. The
// partitioned evaluator (exec), the lattice gate (rollup) and WinMagic
// (optimizer) call it once per plan and add only their own admissibility
// rule.

// KeyTerm is a conjunct of the form
//
//	[g1 OR ... OR] Inner {= | IS NOT DISTINCT FROM} Outer
//
// in either operand order: Inner reads only the row (RowOnly), Outer is
// fixed for the evaluation context (RowIndependent). Guards are
// row-independent disjuncts — the GROUPING(d) <> 0 that ROLLUP contexts
// emit: when one is TRUE the term holds for every row, otherwise it
// selects exactly the rows the bare pin does, because a non-TRUE guard
// never turns a non-TRUE pin into TRUE.
type KeyTerm struct {
	Inner, Outer Expr
	// NullSafe: IS NOT DISTINCT FROM, NULL matches NULL; `=`: NULL matches
	// nothing.
	NullSafe bool
	Guards   []Expr
}

// Conjunct is one AND-ed part of a predicate; Key is nil when it is not a
// key term.
type Conjunct struct {
	Expr Expr
	Key  *KeyTerm
}

// SplitKeyTerms splits pred into its conjuncts, left to right, and reads
// each as a key term or the rest. A conjunct that reads no row at all
// (1 = corr) qualifies too: its Inner is row-only, trivially.
func SplitKeyTerms(pred Expr) []Conjunct {
	conjs := SplitConj(pred)
	out := make([]Conjunct, len(conjs))
	for i, c := range conjs {
		out[i].Expr = c
		if k, ok := keyTermOf(c, nil); ok {
			out[i].Key = &k
		}
	}
	return out
}

func keyTermOf(e Expr, guards []Expr) (KeyTerm, bool) {
	var l, r Expr
	nullSafe := false
	switch t := e.(type) {
	case *IsDistinct:
		if !t.Neg {
			return KeyTerm{}, false
		}
		l, r, nullSafe = t.L, t.R, true
	case *Call:
		if t.Name != "=" || len(t.Args) != 2 {
			return KeyTerm{}, false
		}
		l, r = t.Args[0], t.Args[1]
	case *Or:
		if RowIndependent(t.L) {
			return keyTermOf(t.R, append(guards, t.L))
		}
		if RowIndependent(t.R) {
			return keyTermOf(t.L, append(guards, t.R))
		}
		return KeyTerm{}, false
	default:
		return KeyTerm{}, false
	}
	if !RowOnly(l) || !RowIndependent(r) {
		l, r = r, l
		if !RowOnly(l) || !RowIndependent(r) {
			return KeyTerm{}, false
		}
	}
	return KeyTerm{Inner: l, Outer: r, NullSafe: nullSafe, Guards: guards}, true
}
