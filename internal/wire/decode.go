package wire

// The client's reply decoder: one pass over a reply body already read
// into memory, storing exactly what encoding/json's Decoder.Decode
// stores into the same Reply (or, for a stream, into its Header and row
// lines) and failing exactly when it fails:
//
//   - numbers in cells become float64 via strconv.ParseFloat (a number
//     out of range fails the reply); integer fields take strconv.ParseInt and fail on anything else;
//   - strings are fully unescaped (\uXXXX, surrogate pairs, U+FFFD for
//     unpaired surrogates and invalid UTF-8);
//   - keys match exactly or else case-insensitively (bytes.EqualFold),
//     unknown keys are skipped, a repeated key decodes into what the
//     earlier one stored (so scalars take the last value), null leaves a
//     scalar as it was and clears a slice or pointer;
//   - an empty body is io.EOF, a truncated one io.ErrUnexpectedEOF, and
//     the bytes after the first value are never looked at.
//
// What it stores differently is where: every string of a reply is cut
// from one arena allocated for that reply, rows are carved,
// capacity-limited, from []any blocks sized from the bytes decoded so
// far, and integers below 1024 come pre-boxed — so a reply costs at most
// one allocation per non-NULL string or number cell (the boxing of the
// value into its interface) plus a handful for the reply, not one per
// row.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Reply is the union of the statement endpoints' reply objects; each
// caller reads the fields its endpoint sets.
type Reply struct {
	QueryResponse        // /query, /execute; Message and Error are every endpoint's
	Version       int64  `json:"version"`    // /partial, /rows, /apply
	Frame         string `json:"frame"`      // /partial, /rows: the base64 frame
	NumParams     int    `json:"num_params"` // /prepare
}

// DecodeReply decodes the first JSON value of data into rep, as
// json.NewDecoder(bytes.NewReader(data)).Decode(rep) does; bytes after
// that value are not read.
func DecodeReply(data []byte, rep *Reply) error {
	d := decoder{data: data}
	return d.top(func() { d.reply(rep) })
}

// DecodeStream decodes a /query.ndjson body — a Header, then row lines
// up to a Trailer — into rep's Columns, Types and Rows, handing each
// row to fn as it is decoded. It stops at fn's first error.
func DecodeStream(data []byte, rep *Reply, fn func(row []any) error) error {
	d := decoder{data: data}
	if err := d.top(func() { d.header(rep) }); err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	d.block = rowBlock{start: d.pos, width: len(rep.Types)}
	for {
		var (
			row  []any
			done bool
		)
		if err := d.top(func() { d.line(&row, &done) }); err != nil {
			return err
		}
		if done {
			return nil
		}
		rep.Rows = d.appendRow(rep.Rows, row)
		if err := fn(row); err != nil {
			return err
		}
	}
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

type decoder struct {
	data  []byte
	pos   int
	err   error // the first type mismatch of the current value
	depth int
	// arena holds the reply's unescaped strings; bytes once handed out
	// as a string are never written again.
	arena []byte
	key   []byte // scratch for strings that need unquoting
	block rowBlock
}

// decodeError carries a syntax error (or truncation) out of the
// recursive descent to top.
type decodeError struct{ err error }

func (d *decoder) fail(err error) { panic(decodeError{err}) }

func (d *decoder) syntax(what string) {
	if d.pos >= len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
	}
	d.fail(fmt.Errorf("invalid character %q %s at offset %d", rune(d.data[d.pos]), what, d.pos))
}

// typeError records a value of the wrong JSON type for its target and
// skips it; the reply still has to be well-formed, and fails with the
// first such error once it is.
func (d *decoder) typeError(target string) {
	if d.err == nil {
		d.err = fmt.Errorf("cannot unmarshal %s into %s at offset %d", d.kind(), target, d.pos)
	}
	d.skip()
}

func (d *decoder) kind() string {
	switch d.data[d.pos] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	default:
		return "number"
	}
}

// top decodes one top-level value with obj, which handles an object.
// null stores nothing; any other value is a type error.
func (d *decoder) top(obj func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(decodeError)
			if !ok {
				panic(r)
			}
			err = de.err
		}
	}()
	d.err = nil
	d.ws()
	if d.pos >= len(d.data) {
		return io.EOF
	}
	switch d.data[d.pos] {
	case '{':
		obj()
	case 'n':
		d.literal("null")
	default:
		d.typeError("a reply object")
	}
	// A value ends with its last byte (a number, where the next byte
	// cannot continue it); what follows is the next value's, or nobody's.
	return d.err
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (d *decoder) ws() {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
}

// peek returns the next non-space byte, failing at the end of data.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos >= len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
	}
	return d.data[d.pos]
}

// open consumes '{' or '[' under the nesting limit.
func (d *decoder) open() {
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeding max depth")
	}
	d.pos++
}

// member advances to the i-th member of the object opened at d.pos
// (i == 0) or continuing after a value, returning its key with d.pos
// at the value; false at the closing brace.
func (d *decoder) member(i int) ([]byte, bool) {
	if i == 0 {
		d.open()
	}
	c := d.peek()
	if c == '}' && i == 0 {
		d.pos++
		d.depth--
		return nil, false
	}
	if i > 0 {
		switch c {
		case '}':
			d.pos++
			d.depth--
			return nil, false
		case ',':
			d.pos++
			c = d.peek()
		default:
			d.syntax("after object key:value pair")
		}
	}
	if c != '"' {
		d.syntax("looking for beginning of object key string")
	}
	key := d.str()
	if d.peek() != ':' {
		d.syntax("after object key")
	}
	d.pos++
	d.peek()
	return key, true
}

// elem advances to the i-th element of the array opened at d.pos
// (i == 0) or continuing after a value; false at the closing bracket.
func (d *decoder) elem(i int) bool {
	if i == 0 {
		d.open()
	}
	c := d.peek()
	if c == ']' && i == 0 {
		d.pos++
		d.depth--
		return false
	}
	if i > 0 {
		switch c {
		case ']':
			d.pos++
			d.depth--
			return false
		case ',':
			d.pos++
			d.peek()
		default:
			d.syntax("after array element")
		}
	}
	return true
}

// match returns the index of the field key selects, or -1: an exact
// match, else a case-insensitive one, as encoding/json matches fields.
func match(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

var (
	replyFields  = []string{"columns", "types", "rows", "message", "error", "version", "frame", "num_params"}
	headerFields = []string{"columns", "types"}
	lineFields   = []string{"row", "done"}
	errorFields  = []string{"code", "phase", "offset", "hint", "message", "request_id"}
)

func (d *decoder) reply(rep *Reply) {
	for i := 0; ; i++ {
		key, ok := d.member(i)
		if !ok {
			return
		}
		switch match(key, replyFields) {
		case 0:
			d.setStrings(&rep.Columns)
		case 1:
			d.setStrings(&rep.Types)
		case 2:
			d.setRows(&rep.Rows, len(rep.Types))
		case 3:
			d.setString(&rep.Message)
		case 4:
			d.setError(&rep.Error)
		case 5:
			setInt(d, &rep.Version)
		case 6:
			d.setString(&rep.Frame)
		case 7:
			setInt(d, &rep.NumParams)
		default:
			d.skip()
		}
	}
}

func (d *decoder) header(rep *Reply) {
	for i := 0; ; i++ {
		key, ok := d.member(i)
		if !ok {
			return
		}
		switch match(key, headerFields) {
		case 0:
			d.setStrings(&rep.Columns)
		case 1:
			d.setStrings(&rep.Types)
		default:
			d.skip()
		}
	}
}

func (d *decoder) line(row *[]any, done *bool) {
	for i := 0; ; i++ {
		key, ok := d.member(i)
		if !ok {
			return
		}
		switch match(key, lineFields) {
		case 0:
			d.setRow(row)
		case 1:
			switch d.data[d.pos] {
			case 't':
				d.literal("true")
				*done = true
			case 'f':
				d.literal("false")
				*done = false
			case 'n':
				d.literal("null")
			default:
				d.typeError("bool")
			}
		default:
			d.skip()
		}
	}
}

func (d *decoder) setError(p **Error) {
	switch d.data[d.pos] {
	case 'n':
		d.literal("null")
		*p = nil
		return
	case '{':
	default:
		d.typeError("wire.Error")
		return
	}
	if *p == nil {
		*p = new(Error)
	}
	e := *p
	for i := 0; ; i++ {
		key, ok := d.member(i)
		if !ok {
			return
		}
		switch match(key, errorFields) {
		case 0:
			d.setString(&e.Code)
		case 1:
			d.setString(&e.Phase)
		case 2:
			setInt(d, &e.Offset)
		case 3:
			d.setString(&e.Hint)
		case 4:
			d.setString(&e.Message)
		case 5:
			d.setString(&e.RequestID)
		default:
			d.skip()
		}
	}
}

// extend makes s[i] addressable the way encoding/json does: within the
// capacity the slice is resliced, keeping what an earlier decode left
// there; beyond it the slice grows with zero values.
func extend[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	case cap(s) == 0:
		// The first element: room for a few more up front.
		return make([]T, 1, 4)
	default:
		var zero T
		return append(s, zero)
	}
}

// truncate ends a decoded array of n elements: an empty array is a new
// empty slice, a shorter one truncates.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

func (d *decoder) setStrings(p *[]string) {
	switch d.data[d.pos] {
	case 'n':
		d.literal("null")
		*p = nil
		return
	case '[':
	default:
		d.typeError("[]string")
		return
	}
	ss := *p
	i := 0
	for ; d.elem(i); i++ {
		ss = extend(ss, i)
		d.setString(&ss[i])
	}
	*p = truncate(ss, i)
}

// setString stores a string; null leaves the target as it was.
func (d *decoder) setString(p *string) {
	switch d.data[d.pos] {
	case '"':
		*p = d.stringValue()
	case 'n':
		d.literal("null")
	default:
		d.typeError("string")
	}
}

// setInt stores an integer; null leaves the target as it was.
func setInt[T int | int64](d *decoder, p *T) {
	switch c := d.data[d.pos]; {
	case c == 'n':
		d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		start := d.pos
		num := d.number()
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil || int64(T(n)) != n {
			if d.err == nil {
				d.err = fmt.Errorf("cannot unmarshal number %s into an integer field at offset %d", num, start)
			}
			return
		}
		*p = T(n)
	default:
		d.typeError("an integer field")
	}
}

// setRows decodes a result set. The value is always a fresh decode of this
// key's array: a repeated rows key replaces every cell encoding/json
// would reuse, so nothing of the earlier one survives either way.
func (d *decoder) setRows(p *[][]any, width int) {
	switch d.data[d.pos] {
	case 'n':
		d.literal("null")
		*p = nil
		return
	case '[':
	default:
		d.typeError("[][]interface {}")
		return
	}
	d.block = rowBlock{start: d.pos, width: width}
	var rows [][]any
	i := 0
	for ; d.elem(i); i++ {
		var row []any
		d.setRow(&row)
		rows = d.appendRow(rows, row)
	}
	*p = truncate(rows, i)
}

// setRow decodes one row: null clears it, an array is carved.
func (d *decoder) setRow(p *[]any) {
	switch d.data[d.pos] {
	case 'n':
		d.literal("null")
		*p = nil
	case '[':
		*p = d.row()
	default:
		d.typeError("[]interface {}")
	}
}

// rowBlock carves rows out of []any blocks. A block is replaced, never
// grown, when a row does not fit, so rows already carved keep their
// cells; the replacement is sized for the rows the rest of the body
// holds at the density decoded so far.
type rowBlock struct {
	free  []any
	start int // offset of the first row
	width int // cells expected per row (the reply's types), 0 if unknown
	cells int // cells carved so far
}

// estimate scales n, a count decoded so far, to the remaining bytes.
func (d *decoder) estimate(n int) int {
	used := d.pos - d.block.start
	if n == 0 || used <= 0 {
		return 0
	}
	return n * (len(d.data) - d.pos) / used
}

// row decodes one array of cells into the current block and carves it,
// capacity-limited so appending to it cannot reach the next row.
func (d *decoder) row() []any {
	b := &d.block
	n := 0
	for ; d.elem(n); n++ {
		if n == len(b.free) {
			size := max(b.width, 2*n, 1)
			if b.cells > 0 {
				size = max(size, n+d.estimate(b.cells)+b.width)
			}
			next := make([]any, size)
			copy(next, b.free[:n])
			clear(b.free[:n])
			b.free = next
		}
		b.free[n] = d.value()
	}
	if n == 0 {
		return []any{}
	}
	row := b.free[:n:n]
	b.free = b.free[n:]
	b.cells += n
	return row
}

// appendRow appends row, sizing the slice from the density decoded so
// far when it fills up.
func (d *decoder) appendRow(rows [][]any, row []any) [][]any {
	if len(rows) == cap(rows) {
		next := make([][]any, len(rows), max(2*len(rows), len(rows)+d.estimate(len(rows))+1))
		copy(next, rows)
		rows = next
	}
	return append(rows, row)
}

// value decodes a cell as encoding/json decodes into interface{}.
func (d *decoder) value() any {
	switch c := d.data[d.pos]; c {
	case '"':
		return d.stringValue()
	case 'n':
		d.literal("null")
		return nil
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
		return false
	case '[':
		arr := []any{}
		for i := 0; d.elem(i); i++ {
			arr = append(arr, d.value())
		}
		return arr
	case '{':
		obj := map[string]any{}
		for i := 0; ; i++ {
			key, ok := d.member(i)
			if !ok {
				return obj
			}
			k := d.intern(key)
			obj[k] = d.value()
		}
	default:
		if c != '-' && (c < '0' || c > '9') {
			d.syntax("looking for beginning of value")
		}
		start := d.pos
		num := d.number()
		if v, ok := smallInt(num); ok {
			return v
		}
		f, err := strconv.ParseFloat(unsafe.String(&num[0], len(num)), 64)
		if err != nil {
			if d.err == nil {
				d.err = fmt.Errorf("cannot unmarshal number %s into float64 at offset %d", num, start)
			}
			return nil
		}
		return f
	}
}

// boxedInts holds the small non-negative integers already boxed as
// float64 interfaces, so the commonest cells — counts, years, ids —
// cost no allocation.
var boxedInts = func() (b [1024]any) {
	for i := range b {
		b[i] = float64(i)
	}
	return b
}()

// smallInt converts a number of up to 15 digits with no fraction or
// exponent, which float64 holds exactly — what strconv.ParseFloat
// returns for it, sign of zero included.
func smallInt(num []byte) (any, bool) {
	digits := num
	if num[0] == '-' {
		digits = num[1:]
	}
	if len(digits) > 15 {
		return nil, false
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return nil, false
		}
		n = n*10 + int64(c-'0')
	}
	if num[0] == '-' {
		return -float64(n), true
	}
	if n < int64(len(boxedInts)) {
		return boxedInts[n], true
	}
	return float64(n), true
}

// skip validates and passes over one value without storing it.
func (d *decoder) skip() {
	switch c := d.data[d.pos]; c {
	case '"':
		d.str()
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case '[':
		for i := 0; d.elem(i); i++ {
			d.skip()
		}
	case '{':
		for i := 0; ; i++ {
			if _, ok := d.member(i); !ok {
				return
			}
			d.skip()
		}
	default:
		if c != '-' && (c < '0' || c > '9') {
			d.syntax("looking for beginning of value")
		}
		d.number()
	}
}

// literal consumes the literal lit, whose first byte is at d.pos.
func (d *decoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) {
			d.fail(io.ErrUnexpectedEOF)
		}
		if d.data[d.pos] != lit[i] {
			d.syntax("in literal " + lit)
		}
		d.pos++
	}
}

// number consumes a number per the JSON grammar and returns its bytes.
// A number running into the end of data is complete only where the
// grammar allows it to end.
func (d *decoder) number() []byte {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos >= len(d.data):
		d.fail(io.ErrUnexpectedEOF)
	case d.data[d.pos] == '0':
		d.pos++
	case '1' <= d.data[d.pos] && d.data[d.pos] <= '9':
		d.digits()
	default:
		d.syntax("in numeric literal")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		d.digit("after decimal point in numeric literal")
		d.digits()
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		d.digit("in exponent of numeric literal")
		d.digits()
	}
	return d.data[start:d.pos]
}

func (d *decoder) digit(what string) {
	if d.pos >= len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
	}
	if c := d.data[d.pos]; c < '0' || c > '9' {
		d.syntax(what)
	}
}

func (d *decoder) digits() {
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
}

// stringValue decodes the string at d.pos into the reply's arena.
func (d *decoder) stringValue() string {
	return d.intern(d.str())
}

// intern copies b into the arena and returns it as a string. The first
// string of a reply sizes the arena for every byte left in the body,
// which bounds the strings still to come unless invalid UTF-8 expands.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(d.arena)+len(b) > cap(d.arena) {
		d.arena = make([]byte, 0, len(b)+len(d.data)-d.pos)
	}
	start := len(d.arena)
	d.arena = append(d.arena, b...)
	return unsafe.String(&d.arena[start], len(b))
}

// str consumes the string literal at d.pos and returns its contents:
// a slice of data when nothing needs unquoting, else the unquoted bytes
// in d.key, valid until the next string.
func (d *decoder) str() []byte {
	d.pos++
	start := d.pos
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i]
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRune(d.data[i:]); r != utf8.RuneError || size > 1 {
				i += size - 1
				continue
			}
		} else if c != '\\' && c >= ' ' {
			continue
		}
		d.pos = i
		d.key = d.unquote(append(d.key[:0], d.data[start:i]...))
		return d.key
	}
	d.pos = len(d.data)
	d.fail(io.ErrUnexpectedEOF)
	return nil
}

// unquote continues a string from d.pos, appending its unescaped bytes
// to buf, with encoding/json's replacements for bad surrogates and
// invalid UTF-8.
func (d *decoder) unquote(buf []byte) []byte {
	for {
		if d.pos >= len(d.data) {
			d.fail(io.ErrUnexpectedEOF)
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return buf
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				d.fail(io.ErrUnexpectedEOF)
			}
			switch e := d.data[d.pos]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				d.pos++
				r := d.hex4()
				if utf16.IsSurrogate(r) {
					if r2, ok := d.peekU4(); ok {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							d.pos += 6
							buf = utf8.AppendRune(buf, dec)
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				buf = utf8.AppendRune(buf, r)
				continue
			default:
				d.syntax("in string escape code")
			}
			d.pos++
		case c < ' ':
			d.syntax("in string literal")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			buf = utf8.AppendRune(buf, r)
			d.pos += size
		}
	}
}

// hex4 consumes the four hex digits of a \u escape.
func (d *decoder) hex4() rune {
	var r rune
	for i := 0; i < 4; i++ {
		if d.pos >= len(d.data) {
			d.fail(io.ErrUnexpectedEOF)
		}
		v, ok := hexValue(d.data[d.pos])
		if !ok {
			d.syntax("in \\u hexadecimal character escape")
		}
		r = r*16 + v
		d.pos++
	}
	return r
}

// peekU4 reads a following \uXXXX escape without consuming it.
func (d *decoder) peekU4() (rune, bool) {
	s := d.data[d.pos:]
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range s[2:6] {
		v, ok := hexValue(c)
		if !ok {
			return 0, false
		}
		r = r*16 + v
	}
	return r, true
}

func hexValue(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}
