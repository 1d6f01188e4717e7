package qft

import (
	"strings"
	"testing"

	"qfe/internal/core"
)

// TestNewByName: every name of Names builds the QFT of that name (the
// baselines here, the paper's encodings through core.New), Factory builds the
// same, and a name New refuses gets an error listing the four and no Factory.
func TestNewByName(t *testing.T) {
	meta := core.NewTableMetaFromAttrs("t", []core.AttrMeta{{Name: "a", Min: 0, Max: 99}, {Name: "b", Min: 1, Max: 2}}, 8)
	opts := core.Options{MaxEntriesPerAttr: 8, AttrSel: true}
	dims := map[string]int{"simple": 8, "range": 4, "conjunctive": 8 + 2 + 2, "complex": 8 + 2 + 2}
	if got := strings.Join(Names(), " "); got != "simple range conjunctive complex" {
		t.Errorf("Names() = %s, want the paper's order", got)
	}
	for _, name := range Names() {
		f, err := New(name, meta, opts)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		g := Factory(name)(meta, opts)
		if f.Name() != name || g.Name() != name || f.Dim() != dims[name] || g.Dim() != dims[name] {
			t.Errorf("%s: New gives %s of dim %d, Factory %s of dim %d, want dim %d", name, f.Name(), f.Dim(), g.Name(), g.Dim(), dims[name])
		}
	}
	if _, err := New("bogus", meta, opts); err == nil || !strings.Contains(err.Error(), "simple, range, conjunctive, or complex") {
		t.Errorf("New(bogus): err = %v, want one listing the four names", err)
	}
	if Factory("bogus") != nil {
		t.Error("Factory(bogus) is not nil")
	}
}
