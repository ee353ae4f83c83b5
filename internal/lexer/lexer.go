// Package lexer tokenizes SQL text, including the measure extensions'
// keywords (MEASURE, AT, VISIBLE, CURRENT). AGGREGATE and EVAL lex as
// ordinary identifiers and are recognized as functions by the parser.
// Keywords are recognized case-insensitively; identifiers preserve their
// original spelling and may be double-quoted to escape keywords.
//
// A Lexer is a stream: Next scans one token at a time, and the parser
// pulls from it through a lookahead window, so a script is never held as
// a token slice. A token's Text is a copy only for an escaped quote: a
// keyword's is its canonical upper-case spelling, an operator's a
// constant, and an identifier's, a number's or an unescaped string's a
// substring of the input. Whoever keeps a token's text beyond the
// statement must copy it (DESIGN.md, "the parser and the ingest path").
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

const (
	// EOF marks the end of input.
	EOF Kind = iota
	// Ident is an identifier (possibly quoted).
	Ident
	// Keyword is a reserved or contextual SQL keyword, normalized upper-case.
	Keyword
	// Number is an integer or decimal literal.
	Number
	// String is a single-quoted string literal (value has quotes removed
	// and doubled quotes collapsed).
	String
	// Op is an operator or punctuation token.
	Op
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case Number:
		return "number"
	case String:
		return "string"
	case Op:
		return "operator"
	default:
		return "unknown"
	}
}

// Token is a lexical token. Text is the normalized token text: upper-case
// for keywords, verbatim for identifiers and literals, the operator symbol
// for operators.
type Token struct {
	Kind Kind
	Text string
	Pos  int // byte offset in the input
}

// keywords maps every word the parser treats as a keyword to itself, the
// canonical Text of its tokens. Contextual keywords (like MEASURE or AT)
// are included; the parser accepts them as identifiers where the grammar
// allows.
var keywords = map[string]string{}

func init() {
	for _, w := range []string{
		"ALL", "AND", "AS", "ASC", "AT", "BETWEEN", "BY", "CASE", "CAST",
		"CREATE", "CROSS", "CUBE", "CURRENT", "DESC", "DISTINCT", "DROP",
		"ELSE", "END", "EXCEPT", "EXISTS", "FALSE", "FILTER", "FIRST",
		"FOLLOWING", "FROM", "FULL", "GROUP", "GROUPING", "HAVING", "IN",
		"INNER", "INSERT", "INTERSECT", "INTO", "IS", "JOIN", "LAST",
		"LEFT", "LIKE", "LIMIT", "MEASURE", "NATURAL", "NOT", "NULL",
		"NULLS", "OFFSET", "ON", "OR", "ORDER", "OUTER", "OVER",
		"PARTITION", "PRECEDING", "QUALIFY", "RANGE", "REPLACE", "RIGHT", "ROLLUP",
		"ROW", "ROWS", "SELECT", "SET", "SETS", "TABLE", "THEN", "TRUE",
		"UNBOUNDED", "UNION", "USING", "VALUES", "VIEW", "VISIBLE", "WHEN",
		"WHERE", "WITH", "WITHIN", "DATE", "EXPLAIN", "EXPAND",
	} {
		keywords[w] = w
	}
}

// IsKeyword reports whether the upper-cased word is a keyword.
func IsKeyword(word string) bool {
	_, ok := keywords[strings.ToUpper(word)]
	return ok
}

// Lexer scans SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the entire input with Next, returning all tokens followed
// by an EOF token, or a lexical error annotated with its byte offset. The
// parser does not use it; it serves callers that count or print tokens.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.scanString()
	case c == '"':
		return l.scanQuotedIdent()
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.scanNumber()
	case isIdentStart(rune(c)) || c >= utf8.RuneSelf:
		return l.scanWord()
	default:
		return l.scanOp()
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *Lexer) scanString() (Token, error) {
	start := l.pos
	text, ok := l.scanQuoted('\'')
	if !ok {
		return Token{}, fmt.Errorf("unterminated string literal at offset %d", start)
	}
	return Token{Kind: String, Text: text, Pos: start}, nil
}

func (l *Lexer) scanQuotedIdent() (Token, error) {
	start := l.pos
	text, ok := l.scanQuoted('"')
	if !ok {
		return Token{}, fmt.Errorf("unterminated quoted identifier at offset %d", start)
	}
	return Token{Kind: Ident, Text: text, Pos: start}, nil
}

// scanQuoted scans the text between the quote q at l.pos and its closing
// quote, a doubled q standing for one. Text without a doubled quote is
// returned as a substring of the input; only an escape makes a copy. ok
// is false when the input ends first.
func (l *Lexer) scanQuoted(q byte) (text string, ok bool) {
	l.pos++ // opening quote
	start := l.pos
	escaped := false
	for l.pos < len(l.src) {
		if l.src[l.pos] != q {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == q {
			escaped = true
			l.pos += 2
			continue
		}
		text = l.src[start:l.pos]
		l.pos++
		if escaped {
			text = strings.ReplaceAll(text, string([]byte{q, q}), string(q))
		}
		return text, true
	}
	return "", false
}

func (l *Lexer) scanNumber() (Token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Kind: Number, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: Number, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) scanWord() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	word := l.src[start:l.pos]
	if kw, ok := keywords[strings.ToUpper(word)]; ok {
		return Token{Kind: Keyword, Text: kw, Pos: start}, nil
	}
	return Token{Kind: Ident, Text: word, Pos: start}, nil
}

// multi-character operators, longest first.
var multiOps = []string{"<>", "<=", ">=", "!=", "||", "->"}

// singleOps are the one-character operators; a token's Text is a slice of
// this constant, so it neither allocates nor points into the input.
const singleOps = "(),+-*/%<>=;.?"

func (l *Lexer) scanOp() (Token, error) {
	start := l.pos
	rest := l.src[l.pos:]
	for _, op := range multiOps {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			text := op
			if text == "!=" {
				text = "<>"
			}
			return Token{Kind: Op, Text: text, Pos: start}, nil
		}
	}
	c := l.src[l.pos]
	if i := strings.IndexByte(singleOps, c); i >= 0 {
		l.pos++
		return Token{Kind: Op, Text: singleOps[i : i+1], Pos: start}, nil
	}
	switch c {
	case '$':
		// $n parameter placeholder: the dollar sign plus at least one digit.
		l.pos++
		numStart := l.pos
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == numStart {
			return Token{}, fmt.Errorf("expected digits after $ at offset %d", start)
		}
		return Token{Kind: Op, Text: l.src[start:l.pos], Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("unexpected character %q at offset %d", c, start)
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
