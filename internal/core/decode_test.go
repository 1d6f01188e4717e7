package core

import (
	"fmt"
	"strings"
	"testing"

	"qfe/internal/table"
)

// This file implements the inverse direction of Definition 3.1 (lossless
// query featurization): decoding a partitioned feature vector (Universal
// Conjunction Encoding or Limited Disjunction Encoding) back into the set of
// attribute values it admits. The decoder is what makes the lossless
// property *testable*: a featurization is lossless for a query class iff the
// decoded admission sets reproduce the original query's result on every
// instance — which the property tests in this package verify, including the
// convergence statement of Lemma 3.2. Nothing but those tests calls it, so
// it lives beside them.

// TestCountDecodedFailsOnDroppedRows: once table.DB.DropRows has freed a
// table's rows, counting a decoded vector over it fails and names the table
// instead of counting a table that now reads as empty.
func TestCountDecodedFailsOnDroppedRows(t *testing.T) {
	tbl := table.New("orders")
	tbl.MustAddColumn(table.NewColumn("a", []int64{1, 2, 3, 4, 5}))
	db := table.NewDB()
	db.MustAdd(tbl)
	db.DropRows()
	if _, _, err := CountDecoded(tbl, nil); err == nil || !strings.Contains(err.Error(), "orders") {
		t.Errorf("CountDecoded after the drop: error %v, want one naming table orders", err)
	}
	if _, _, err := CountDecodedBounds(tbl, nil); err == nil || !strings.Contains(err.Error(), "orders") {
		t.Errorf("CountDecodedBounds after the drop: error %v, want one naming table orders", err)
	}
}

// BucketState is the categorical value of one partition entry.
type BucketState int8

// Bucket states, ordered by admitted share.
const (
	BucketEmpty   BucketState = iota // entry 0: no value in the partition qualifies
	BucketPartial                    // entry ½: some values qualify
	BucketFull                       // entry 1: all values qualify
)

// String returns "0", "1/2", or "1".
func (s BucketState) String() string {
	switch s {
	case BucketEmpty:
		return "0"
	case BucketPartial:
		return "1/2"
	case BucketFull:
		return "1"
	}
	return fmt.Sprintf("BucketState(%d)", int8(s))
}

// DecodedAttr is the decoded admission structure of one attribute: one
// BucketState per partition, plus the appended selectivity estimate when the
// vector was produced with AttrSel enabled.
type DecodedAttr struct {
	Attr   AttrMeta
	States []BucketState
	Sel    float64
	HasSel bool
}

// Admits classifies value val: true/false when the value's partition is
// full/empty, and exact=false when the partition is partial (the
// featurization lost whether val qualifies).
func (d *DecodedAttr) Admits(val int64) (admitted, exact bool) {
	idx := d.Attr.BucketOf(val)
	if idx < 0 || idx >= len(d.States) {
		return false, true // outside the attribute domain
	}
	switch d.States[idx] {
	case BucketFull:
		return true, true
	case BucketEmpty:
		return false, true
	default:
		return false, false
	}
}

// Exact reports whether the decoded attribute has no partial partitions,
// i.e. admission is fully determined.
func (d *DecodedAttr) Exact() bool {
	for _, s := range d.States {
		if s == BucketPartial {
			return false
		}
	}
	return true
}

// DecodePartitioned splits a feature vector produced by Universal
// Conjunction Encoding or Limited Disjunction Encoding (they share a layout)
// back into per-attribute admission structures. meta and opts must be the
// ones the vector was featurized with.
func DecodePartitioned(meta *TableMeta, opts Options, vec []float64) ([]DecodedAttr, error) {
	layout := newPartitioned("", meta, opts, nil)
	if want := layout.Dim(); len(vec) != want {
		return nil, fmt.Errorf("core: vector has %d entries, meta expects %d", len(vec), want)
	}
	out := make([]DecodedAttr, 0, len(meta.Attrs))
	pos := 0
	for _, a := range meta.Attrs {
		d := DecodedAttr{Attr: a, States: make([]BucketState, a.NEntries)}
		for i := 0; i < a.NEntries; i++ {
			switch v := vec[pos+i]; {
			case v == 0:
				d.States[i] = BucketEmpty
			case v == 1:
				d.States[i] = BucketFull
			case v == 0.5:
				d.States[i] = BucketPartial
			default:
				return nil, fmt.Errorf("core: entry %d of attribute %q has non-categorical value %v", i, a.Name, v)
			}
		}
		pos += a.NEntries
		if opts.AttrSel {
			d.Sel, d.HasSel = vec[pos], true
			pos++
		}
		out = append(out, d)
	}
	return out, nil
}

// CountDecoded counts the rows of t admitted by the decoded per-attribute
// structures, resolving each attribute by name against t's columns. The
// second result reports whether the count is exact: it is as long as no row
// hit a partial partition. When exact is true and the featurization is
// lossless for the original query, the count equals the query's true
// cardinality — the checkable form of Definition 3.1.
func CountDecoded(t *table.Table, decoded []DecodedAttr) (count int64, exact bool, err error) {
	if err := t.CheckRows(); err != nil {
		return 0, false, err
	}
	cols := make([][]int64, len(decoded))
	for i, d := range decoded {
		col := t.Column(d.Attr.Name)
		if col == nil {
			return 0, false, fmt.Errorf("core: table %q has no column %q", t.Name, d.Attr.Name)
		}
		cols[i] = col.Vals
	}
	exact = true
	for r := 0; r < t.NumRows(); r++ {
		rowAdmitted := true
		for i := range decoded {
			adm, ex := decoded[i].Admits(cols[i][r])
			if !ex {
				exact = false
				rowAdmitted = false
				break
			}
			if !adm {
				rowAdmitted = false
				break
			}
		}
		if rowAdmitted {
			count++
		}
	}
	return count, exact, nil
}

// CountDecodedBounds returns lower and upper bounds on the admitted row
// count: partial partitions count as rejected for the lower bound and
// admitted for the upper bound. For an exact decoding the bounds coincide.
func CountDecodedBounds(t *table.Table, decoded []DecodedAttr) (lo, hi int64, err error) {
	if err := t.CheckRows(); err != nil {
		return 0, 0, err
	}
	cols := make([][]int64, len(decoded))
	for i, d := range decoded {
		col := t.Column(d.Attr.Name)
		if col == nil {
			return 0, 0, fmt.Errorf("core: table %q has no column %q", t.Name, d.Attr.Name)
		}
		cols[i] = col.Vals
	}
	for r := 0; r < t.NumRows(); r++ {
		admLo, admHi := true, true
		for i := range decoded {
			adm, ex := decoded[i].Admits(cols[i][r])
			if ex {
				if !adm {
					admLo, admHi = false, false
					break
				}
			} else {
				admLo = false // pessimistic
			}
		}
		if admLo {
			lo++
		}
		if admHi {
			hi++
		}
	}
	return lo, hi, nil
}
