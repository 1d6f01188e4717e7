package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the table as CSV with a header row. Dictionary-encoded
// columns are written as their decoded strings.
func (t *Table) WriteCSV(w io.Writer) error {
	if err := t.CheckRows(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("table %s: write header: %w", t.Name, err)
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c, col := range t.cols {
			if col.Dict != nil {
				row[c] = col.Decode(col.Vals[r])
			} else {
				row[c] = strconv.FormatInt(col.Vals[r], 10)
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("table %s: write row %d: %w", t.Name, r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table from CSV. The first row is the header. Columns
// whose every value parses as an integer become plain integer columns;
// anything else is dictionary-encoded as strings.
func ReadCSV(name string, r io.Reader) (*Table, error) {
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
