package journal

import "testing"

// TestParseSegNumber: a segment name parses to its number in (0, 2^62],
// padded or not; anything else, a 20-digit number that would wrap a uint64
// on its last digit included, is not a segment.
func TestParseSegNumber(t *testing.T) {
	for _, tc := range []struct {
		name string
		want uint64
		ok   bool
	}{
		{"seg-00000001.qfej", 1, true},
		{"seg-1.qfej", 1, true},
		{"seg-00000042.qfej", 42, true},
		{"seg-123456789.qfej", 123456789, true},
		{"seg-4611686018427387904.qfej", 1 << 62, true},
		{"seg-0004611686018427387904.qfej", 1 << 62, true},
		{"seg-4611686018427387905.qfej", 0, false},
		{"seg-20000000000000000000.qfej", 0, false},
		{"seg-18446744073709551621.qfej", 0, false},
		{"seg-99999999999999999999.qfej", 0, false},
		{"seg-00000000.qfej", 0, false},
		{"seg-.qfej", 0, false},
		{"seg-+1.qfej", 0, false},
		{"seg-1_000.qfej", 0, false},
		{"seg-12a.qfej", 0, false},
	} {
		if n, ok := parseSegNumber(tc.name, segPrefix); n != tc.want || ok != tc.ok {
			t.Errorf("parseSegNumber(%q) = %d, %v; want %d, %v", tc.name, n, ok, tc.want, tc.ok)
		}
	}
	if n, ok := parseSegNumber("quarantined-seg-00000007.qfej", quarantinePrefix); n != 7 || !ok {
		t.Errorf("a quarantined segment's name parses to %d, %v; want 7, true", n, ok)
	}
}
