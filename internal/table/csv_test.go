package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// readCSV parses a table from CSV, the inverse of WriteCSV. The first row
// is the header. Columns whose every value parses as an integer become plain
// integer columns; anything else is dictionary-encoded as strings.
func readCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table %s: read header: %w", name, err)
	}
	names := append([]string(nil), header...)
	raw := make([][]string, len(names))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %s: read row: %w", name, err)
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("table %s: row has %d fields, want %d", name, len(rec), len(names))
		}
		for c, v := range rec {
			raw[c] = append(raw[c], v)
		}
	}
	t := New(name)
	for c, colName := range names {
		if ints, ok := tryParseInts(raw[c]); ok {
			t.MustAddColumn(NewColumn(colName, ints))
		} else {
			t.MustAddColumn(NewStringColumn(colName, raw[c]))
		}
	}
	return t, nil
}

func tryParseInts(vals []string) ([]int64, bool) {
	out := make([]int64, len(vals))
	for i, v := range vals {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false
		}
		out[i] = n
	}
	return out, true
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := New("t")
	tbl.MustAddColumn(NewColumn("id", []int64{1, 2, 3}))
	tbl.MustAddColumn(NewStringColumn("name", []string{"x", "y", "x"}))
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || back.NumCols() != 2 {
		t.Fatalf("round-trip shape = (%d, %d)", back.NumRows(), back.NumCols())
	}
	for r, want := range []string{"x", "y", "x"} {
		if got := back.Column("name").Decode(back.Column("name").Vals[r]); got != want {
			t.Errorf("row %d name = %q, want %q", r, got, want)
		}
	}
	for r, want := range []int64{1, 2, 3} {
		if got := back.Column("id").Vals[r]; got != want {
			t.Errorf("row %d id = %d, want %d", r, got, want)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV("t", strings.NewReader("")); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := readCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("expected error for ragged row")
	}
}
