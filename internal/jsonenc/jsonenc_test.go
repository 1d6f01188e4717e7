package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// TestMatchesMarshal holds both helpers to json.Marshal on the inputs where
// encoding/json does something other than copy: escapes, HTML-sensitive
// bytes, the two line separators, invalid UTF-8, and floats on both sides of
// the exponent-form cutoffs, negative zero and the extremes. The wire codec's
// and the journal's fuzz targets cover them on arbitrary inputs.
func TestMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " backslash \ slash /`, "<b>&amp;</b>",
		"\b\f\n\r\t\x00\x1f\x7f", "caf\u00e9 \u2028 \u2029 \U0001F600",
		"bad \xff utf8 \xe2\x82", "SELECT count(*) FROM forest WHERE A1 >= 3 AND A2 <> 'x'",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String(nil, s); string(got) != string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999e-7, 1e-7, 1e-300, 1e20,
		1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-8,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := Float(nil, f); string(got) != string(want) {
			t.Errorf("Float(%v) = %s, want %s", f, got, want)
		}
	}
}
