package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// cardMarker separates the SQL text from the label in the workload file
// format: one query per line, followed by "-- cardinality: N".
const cardMarker = "-- cardinality: "

// WriteSet writes the labeled set in the textual workload format (one
// query per line with its true cardinality as a trailing comment), the
// format cmd/datagen emits.
func WriteSet(w io.Writer, set Set) error {
	bw := bufio.NewWriter(w)
	for _, l := range set {
		if _, err := fmt.Fprintf(bw, "%s %s%d\n", l.Query, cardMarker, l.Card); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSet parses a labeled workload file written by WriteSet/cmd/datagen and
// binds every query against db (exec.Bind), as the generators bind theirs.
// Blank lines and lines starting with "--" are skipped.
func ReadSet(r io.Reader, db *table.DB) (Set, error) {
	var out Set
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		idx := strings.LastIndex(line, cardMarker)
		if idx < 0 {
			return nil, fmt.Errorf("workload: line %d lacks the %q label", lineNo, strings.TrimSpace(cardMarker))
		}
		sqlText := strings.TrimSpace(line[:idx])
		cardText := strings.TrimSpace(line[idx+len(cardMarker):])
		card, err := strconv.ParseInt(cardText, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad cardinality %q: %w", lineNo, cardText, err)
		}
		q, err := sqlparse.Parse(sqlText)
		if err == nil {
			err = exec.Bind(q, db)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		out = append(out, Labeled{Query: q, Card: card})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return out, nil
}
