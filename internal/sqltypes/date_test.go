package sqltypes

import (
	"fmt"
	"testing"
	"time"
)

// parseDateByLayout is ParseDate as time.Parse reads it: the reference
// the hand-written parser must match, value and error alike.
func parseDateByLayout(s string) (Value, error) {
	for _, layout := range []string{"2006-01-02", "2006/01/02"} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return Value{K: KindDate, I: t.Unix() / 86400}, nil
		}
	}
	return Value{}, fmt.Errorf("invalid DATE literal %q", s)
}

func sameParse(t *testing.T, s string) {
	t.Helper()
	got, gerr := ParseDate(s)
	want, werr := parseDateByLayout(s)
	if got != want || (gerr != nil || werr != nil) && fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("ParseDate(%q) = %v, %v; time.Parse reads %v, %v", s, got, gerr, want, werr)
	}
}

// TestParseDateMatchesTimeParse runs every day from 0001-01-01 to
// 9999-12-31 with both separators, and malformed dates, through
// ParseDate and through time.Parse.
func TestParseDateMatchesTimeParse(t *testing.T) {
	buf := []byte("0000-00-00")
	put := func(at, width, n int) {
		for i := at + width - 1; i >= at; i-- {
			buf[i] = byte('0' + n%10)
			n /= 10
		}
	}
	day := time.Date(1, time.January, 1, 0, 0, 0, 0, time.UTC)
	for ; day.Year() < 10000; day = day.AddDate(0, 0, 1) {
		y, m, d := day.Date()
		put(0, 4, y)
		put(5, 2, int(m))
		put(8, 2, d)
		for _, sep := range []byte{'-', '/'} {
			buf[4], buf[7] = sep, sep
			sameParse(t, string(buf))
		}
	}
	for _, s := range []string{
		"", "2024-00-10", "2024-13-10", "2024/00/10", "2024/13/10",
		"2024-01-00", "2024-01-32", "2024-04-31", "2024/01/00", "2024/01/32",
		"1900-02-29", "2000-02-29", "2023-02-29", "2024-02-29", "1900/02/29", "2000/02/29", "2023/02/29",
		"2024-1-10", "2024-01-1", "2024-011-0", "0000-01-01", "0000-02-29",
		"+024-01-10", "-024-01-10", "2024-+1-10", "2024-01--1", "2024-01-+1",
		" 2024-01-10", "2024-01-10 ", "2024 01 10", "2024- 1-10", "2024-01- 1",
		"2024-01/10", "2024/01-10", "2024.01.10", "20240110", "2024-01-10x",
		"24-01-10", "12024-01-10", "2024-01-10T00:00:00", "２０２４-01-10", "not a date",
	} {
		sameParse(t, s)
	}
}
