// Package fn is the registry of scalar and aggregate functions: the
// binder consults it for arity and result-type checking, the executor for
// evaluation. Operators (+, =, LIKE, ...) are registered under their
// symbol so the whole expression language flows through one table.
package fn

import (
	"fmt"
	"strings"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// Scalar describes a scalar function.
type Scalar struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 means variadic
	// Strict functions return NULL when any argument is NULL; the
	// executor short-circuits them and Eval never sees a NULL.
	Strict bool
	// Volatile functions may return different values for identical
	// arguments (e.g. RANDOM). Expressions containing one are pinned to
	// serial, in-order evaluation by the parallel executor.
	Volatile bool
	// Ret computes the result type from argument types.
	Ret func(args []sqltypes.Type) (sqltypes.Type, error)
	// Eval computes the result.
	Eval func(args []sqltypes.Value) (sqltypes.Value, error)
}

var scalars = map[string]*Scalar{}

// LookupScalar finds a scalar function by (case-insensitive) name. Names
// are registered in upper case, which is how the binder spells them in
// plans: those are found without folding.
func LookupScalar(name string) (*Scalar, bool) {
	if s, ok := scalars[name]; ok {
		return s, true
	}
	s, ok := scalars[strings.ToUpper(name)]
	return s, ok
}

// MustLookupScalar is LookupScalar for names the engine itself generates.
func MustLookupScalar(name string) *Scalar {
	s, ok := LookupScalar(name)
	if !ok {
		panic("fn: missing builtin " + name)
	}
	return s
}

func register(s *Scalar) {
	scalars[s.Name] = s
}

// Fixed-type helpers.

func retKind(k sqltypes.Kind) func([]sqltypes.Type) (sqltypes.Type, error) {
	return func([]sqltypes.Type) (sqltypes.Type, error) {
		return sqltypes.Type{Kind: k}, nil
	}
}

func argNumeric(args []sqltypes.Type, name string) error {
	for _, a := range args {
		if !a.Kind.Numeric() && a.Kind != sqltypes.KindUnknown {
			return fmt.Errorf("%s: expected numeric argument, got %s", name, a)
		}
	}
	return nil
}

func retPromote(name string) func([]sqltypes.Type) (sqltypes.Type, error) {
	return func(args []sqltypes.Type) (sqltypes.Type, error) {
		if err := argNumeric(args, name); err != nil {
			return sqltypes.Type{}, err
		}
		kind := sqltypes.KindInt
		for _, a := range args {
			if a.Kind == sqltypes.KindFloat {
				kind = sqltypes.KindFloat
			}
		}
		return sqltypes.Type{Kind: kind}, nil
	}
}

func requireDate(args []sqltypes.Type, name string) error {
	if args[0].Kind != sqltypes.KindDate && args[0].Kind != sqltypes.KindUnknown {
		return fmt.Errorf("%s: expected DATE argument, got %s", name, args[0])
	}
	return nil
}

func init() {
	registerOperators()
	registerDateFuncs()
	registerNumericFuncs()
	registerStringFuncs()
	registerConditionalFuncs()
}

func registerOperators() {
	arith := func(sym string, f func(a, b sqltypes.Value) (sqltypes.Value, error), ret func([]sqltypes.Type) (sqltypes.Type, error)) {
		register(&Scalar{
			Name: sym, MinArgs: 2, MaxArgs: 2, Strict: true,
			Ret: ret,
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				return f(args[0], args[1])
			},
		})
	}
	arithRet := func(sym string) func([]sqltypes.Type) (sqltypes.Type, error) {
		return func(args []sqltypes.Type) (sqltypes.Type, error) {
			a, b := args[0], args[1]
			// Date arithmetic.
			if a.Kind == sqltypes.KindDate || b.Kind == sqltypes.KindDate {
				switch {
				case sym == "-" && a.Kind == sqltypes.KindDate && b.Kind == sqltypes.KindDate:
					return sqltypes.Type{Kind: sqltypes.KindInt}, nil
				case (sym == "+" || sym == "-") && a.Kind == sqltypes.KindDate:
					return sqltypes.Type{Kind: sqltypes.KindDate}, nil
				case sym == "+" && b.Kind == sqltypes.KindDate:
					return sqltypes.Type{Kind: sqltypes.KindDate}, nil
				default:
					return sqltypes.Type{}, fmt.Errorf("invalid date arithmetic %s %s %s", a, sym, b)
				}
			}
			if sym == "/" {
				if err := argNumeric(args, sym); err != nil {
					return sqltypes.Type{}, err
				}
				return sqltypes.Type{Kind: sqltypes.KindFloat}, nil
			}
			return retPromote(sym)(args)
		}
	}
	arith("+", sqltypes.Add, arithRet("+"))
	arith("-", sqltypes.Sub, arithRet("-"))
	arith("*", sqltypes.Mul, retPromote("*"))
	arith("/", sqltypes.Div, arithRet("/"))
	arith("%", sqltypes.Mod, retPromote("%"))

	cmpRet := func(args []sqltypes.Type) (sqltypes.Type, error) {
		if _, err := sqltypes.CommonType(args[0].Kind, args[1].Kind); err != nil {
			return sqltypes.Type{}, err
		}
		return sqltypes.Type{Kind: sqltypes.KindBool}, nil
	}
	cmp := func(sym string, test func(c int) bool) {
		register(&Scalar{
			Name: sym, MinArgs: 2, MaxArgs: 2, Strict: true,
			Ret: cmpRet,
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				c, err := sqltypes.Compare(args[0], args[1])
				if err != nil {
					return sqltypes.Value{}, err
				}
				return sqltypes.NewBool(test(c)), nil
			},
		})
	}
	cmp("=", func(c int) bool { return c == 0 })
	cmp("<>", func(c int) bool { return c != 0 })
	cmp("<", func(c int) bool { return c < 0 })
	cmp("<=", func(c int) bool { return c <= 0 })
	cmp(">", func(c int) bool { return c > 0 })
	cmp(">=", func(c int) bool { return c >= 0 })

	register(&Scalar{
		Name: "||", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: retKind(sqltypes.KindString),
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			a, err := sqltypes.Cast(args[0], sqltypes.KindString)
			if err != nil {
				return sqltypes.Value{}, err
			}
			b, err := sqltypes.Cast(args[1], sqltypes.KindString)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewString(a.S + b.S), nil
		},
	})

	like := func(name string, neg bool) {
		register(&Scalar{
			Name: name, MinArgs: 2, MaxArgs: 2, Strict: true,
			Ret: retKind(sqltypes.KindBool),
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				if args[0].K != sqltypes.KindString || args[1].K != sqltypes.KindString {
					return sqltypes.Value{}, fmt.Errorf("LIKE requires string operands")
				}
				m := likeMatch(args[0].S, args[1].S)
				return sqltypes.NewBool(m != neg), nil
			},
		})
	}
	like("LIKE", false)
	like("NOT LIKE", true)
}

// likeMatch implements SQL LIKE with % and _ wildcards (no escape).
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func registerDateFuncs() {
	datePart := func(name string, part func(v sqltypes.Value) int64) {
		register(&Scalar{
			Name: name, MinArgs: 1, MaxArgs: 1, Strict: true,
			Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
				if err := requireDate(args, name); err != nil {
					return sqltypes.Type{}, err
				}
				return sqltypes.Type{Kind: sqltypes.KindInt}, nil
			},
			Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
				return sqltypes.NewInt(part(args[0])), nil
			},
		})
	}
	datePart("YEAR", sqltypes.Value.Year)
	datePart("MONTH", func(v sqltypes.Value) int64 { return int64(v.Time().Month()) })
	datePart("DAY", func(v sqltypes.Value) int64 { return int64(v.Time().Day()) })
	datePart("QUARTER", func(v sqltypes.Value) int64 { return int64((v.Time().Month()-1)/3 + 1) })
	// DAYOFWEEK: 1 = Sunday ... 7 = Saturday, as in most SQL dialects.
	datePart("DAYOFWEEK", func(v sqltypes.Value) int64 { return int64(v.Time().Weekday()) + 1 })

	register(&Scalar{
		Name: "DATE_TRUNC", MinArgs: 2, MaxArgs: 2, Strict: true,
		Ret: func(args []sqltypes.Type) (sqltypes.Type, error) {
			if args[0].Kind != sqltypes.KindString && args[0].Kind != sqltypes.KindUnknown {
				return sqltypes.Type{}, fmt.Errorf("DATE_TRUNC: first argument must be a unit string")
			}
			if args[1].Kind != sqltypes.KindDate && args[1].Kind != sqltypes.KindUnknown {
				return sqltypes.Type{}, fmt.Errorf("DATE_TRUNC: second argument must be a DATE")
			}
			return sqltypes.Type{Kind: sqltypes.KindDate}, nil
		},
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
			t := args[1].Time()
			switch strings.ToUpper(args[0].S) {
			case "YEAR":
				return sqltypes.NewDate(t.Year(), 1, 1), nil
			case "QUARTER":
				q := (int(t.Month()) - 1) / 3
				return sqltypes.NewDate(t.Year(), time.Month(q*3+1), 1), nil
			case "MONTH":
				return sqltypes.NewDate(t.Year(), t.Month(), 1), nil
			case "WEEK":
				// Truncate to Monday.
				wd := (int(t.Weekday()) + 6) % 7
				return sqltypes.NewDateDays(args[1].I - int64(wd)), nil
			case "DAY":
				return args[1], nil
			default:
				return sqltypes.Value{}, fmt.Errorf("DATE_TRUNC: unknown unit %q", args[0].S)
			}
		},
	})
}
