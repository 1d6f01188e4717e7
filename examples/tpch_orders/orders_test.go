package main

import "testing"

func TestTPCHOrders(t *testing.T) {
	tbl, err := tpchOrders(tpchConfig{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5000 || tbl.Name != "orders" {
		t.Fatalf("shape: %d rows, name %q", tbl.NumRows(), tbl.Name)
	}
	// Dates are valid yyyymmdd encodings within the TPC-H window.
	dates := tbl.Column("o_orderdate")
	for _, d := range dates.Vals {
		y, m, dd := d/10_000, (d/100)%100, d%100
		if y < 1992 || y > 1998 || m < 1 || m > 12 || dd < 1 || dd > 31 {
			t.Fatalf("invalid date encoding %d", d)
		}
	}
	// Status dictionary is {F, O, P} and statuses correlate with age:
	// pre-1996 orders are overwhelmingly finished.
	status := tbl.Column("o_orderstatus")
	if len(status.Dict) != 3 {
		t.Fatalf("status dictionary %v", status.Dict)
	}
	fCode := int64(-1)
	for i, s := range status.Dict {
		if s == "F" {
			fCode = int64(i)
		}
	}
	oldF, oldAll := 0, 0
	for r := 0; r < tbl.NumRows(); r++ {
		if dates.Vals[r] < encodeDate(1996, 1, 1) {
			oldAll++
			if status.Vals[r] == fCode {
				oldF++
			}
		}
	}
	if oldAll == 0 || float64(oldF)/float64(oldAll) < 0.9 {
		t.Errorf("old orders finished ratio %d/%d, want > 0.9", oldF, oldAll)
	}
	// Prices long-tailed but bounded.
	price := tbl.Column("o_totalprice")
	if price.Min() < 900 || price.Max() > 60_000 {
		t.Errorf("price domain [%d, %d]", price.Min(), price.Max())
	}
	if _, err := tpchOrders(tpchConfig{Rows: 0}); err == nil {
		t.Error("Rows=0 accepted")
	}
}

func TestEncodeDateOrderPreserving(t *testing.T) {
	if encodeDate(1994, 7, 4) != 19940704 {
		t.Fatalf("EncodeDate = %d", encodeDate(1994, 7, 4))
	}
	if !(encodeDate(1994, 12, 31) < encodeDate(1995, 1, 1)) {
		t.Error("encoding not order preserving across years")
	}
}
