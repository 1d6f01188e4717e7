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
