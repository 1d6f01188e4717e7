package workload

import (
	"bufio"
	"fmt"
	"io"
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
