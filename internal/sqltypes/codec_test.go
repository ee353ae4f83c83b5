package sqltypes

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestValueCodecGolden pins the value codec to the bytes the write-ahead
// log has always written — every kind as a value and as a typed NULL,
// plus the zero Value — so logs and snapshots already on disk keep
// decoding to the values they were written from.
func TestValueCodecGolden(t *testing.T) {
	cases := []struct {
		v    Value
		want []byte
	}{
		{Value{}, []byte{0x00}},
		{Null(KindUnknown), []byte{0x80}},
		{NewBool(true), []byte{0x01, 0x01}},
		{NewBool(false), []byte{0x01, 0x00}},
		{Null(KindBool), []byte{0x81}},
		{NewInt(300), []byte{0x02, 0xd8, 0x04}},
		{NewInt(-1), []byte{0x02, 0x01}},
		{NewInt(math.MinInt64), []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{Null(KindInt), []byte{0x82}},
		{NewFloat(1.5), []byte{0x03, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}},
		{NewFloat(math.Copysign(0, -1)), []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0x80}},
		{Null(KindFloat), []byte{0x83}},
		{NewString("héllo"), []byte{0x04, 0x06, 'h', 0xc3, 0xa9, 'l', 'l', 'o'}},
		{NewString(""), []byte{0x04, 0x00}},
		{Null(KindString), []byte{0x84}},
		{NewDate(2024, time.February, 29), []byte{0x05, 0x8c, 0xb5, 0x02}},
		{NewDate(1969, time.December, 31), []byte{0x05, 0x01}},
		{Null(KindDate), []byte{0x85}},
	}
	for _, c := range cases {
		got := AppendValue(nil, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendValue(%#v) = % x, want % x", c.v, got, c.want)
		}
		dec, n, err := DecodeValue(append(c.want, 0xee)) // trailing byte left unread
		if err != nil {
			t.Fatalf("DecodeValue(% x): %v", c.want, err)
		}
		if n != len(c.want) || !reflect.DeepEqual(dec, c.v) {
			t.Errorf("DecodeValue(% x) = %#v (%d bytes), want %#v (%d bytes)", c.want, dec, n, c.v, len(c.want))
		}
	}
}

// TestValueCodecRejects: malformed input is an error, never a panic or
// a silently different value.
func TestValueCodecRejects(t *testing.T) {
	for name, buf := range map[string][]byte{
		"empty":           {},
		"unknown_kind":    {0x06},
		"bool_missing":    {0x01},
		"bool_byte_2":     {0x01, 0x02},
		"int_truncated":   {0x02, 0x80},
		"float_truncated": {0x03, 0, 0, 0},
		"string_overrun":  {0x04, 0x05, 'a'},
		"date_missing":    {0x05},
	} {
		if v, _, err := DecodeValue(buf); err == nil {
			t.Errorf("%s: DecodeValue(% x) = %#v, want an error", name, buf, v)
		}
	}
	if _, _, err := DecodeValues([]byte{0x03, 0x80}); err == nil {
		t.Error("tuple of 3 values in 1 byte accepted")
	}
}
