package estimator

import (
	"bytes"
	"strings"
	"testing"

	"qfe/internal/table"
)

// LoadEstimator restores the one kind a binary writes. These tests pin its
// envelope checks: a local document loads with or without the "kind" field,
// and a document of any other kind — the global and hybrid documents earlier
// builds could write included — is refused by name before anything in it is
// parsed.

// deletedKindDocuments are well-formed documents of the two kinds this build
// no longer reads, made from a real local snapshot: the same fields under
// "kind":"global", and the snapshot inside the envelope a hybrid used.
func deletedKindDocuments(tb testing.TB, local []byte) (global, hybrid []byte) {
	tb.Helper()
	global = bytes.Replace(local, []byte(`"kind":"local"`), []byte(`"kind":"global"`), 1)
	if bytes.Equal(global, local) {
		tb.Fatal("kind field not found in local snapshot — format changed?")
	}
	hybrid = []byte(`{"format":1,"kind":"hybrid","fallback":"independence","maxQuantileError":3,"quantile":0.9,"modeled":["forest"],"local":` +
		string(bytes.TrimSpace(local)) + "}\n")
	return global, hybrid
}

func TestLoadEstimatorDispatch(t *testing.T) {
	e := env(t)

	// Local (both with and without the explicit kind field).
	localBytes := savedGB(t)
	est, kind, err := LoadEstimator(bytes.NewReader(localBytes), e.db)
	if err != nil || kind != KindLocal {
		t.Fatalf("local dispatch: kind=%q err=%v", kind, err)
	}
	if _, ok := est.(*Local); !ok {
		t.Fatalf("local dispatch returned %T", est)
	}
	legacy := strings.Replace(string(localBytes), `"kind":"local",`, "", 1)
	if legacy == string(localBytes) {
		t.Fatal("kind field not found in local snapshot — format changed?")
	}
	if _, kind, err = LoadEstimator(strings.NewReader(legacy), e.db); err != nil || kind != KindLocal {
		t.Fatalf("legacy (kind-less) local dispatch: kind=%q err=%v", kind, err)
	}

	// Rejections.
	if _, _, err := LoadEstimator(strings.NewReader("not json"), e.db); err == nil {
		t.Error("garbage accepted")
	}
	global, hybrid := deletedKindDocuments(t, localBytes)
	for _, doc := range []struct {
		kind string
		data []byte
	}{
		{"mscn", []byte(`{"format":1,"kind":"mscn"}`)},
		{"global", global},
		{"hybrid", hybrid},
	} {
		for _, db := range []*table.DB{e.db, nil} {
			est, kind, err := LoadEstimator(bytes.NewReader(doc.data), db)
			if err == nil || est != nil || kind != "" {
				t.Errorf("%s document (db %v): est=%v kind=%q err=%v, want only an error", doc.kind, db != nil, est, kind, err)
				continue
			}
			if want := `unknown snapshot kind "` + doc.kind + `"`; !strings.Contains(err.Error(), want) {
				t.Errorf("%s document (db %v): err = %v, want it to say %s", doc.kind, db != nil, err, want)
			}
		}
	}
	// The format is checked before the kind: a future-format document of a
	// kind this build has never heard of is a version error.
	future := bytes.Replace(global, []byte(`"format":2`), []byte(`"format":3`), 1)
	if _, _, err := LoadEstimator(bytes.NewReader(future), e.db); err == nil || !strings.Contains(err.Error(), "format 3") {
		t.Errorf("future-format global document: err = %v, want a format-version error", err)
	}
	// LoadLocal refuses a foreign kind too, so no caller can mis-restore one.
	if _, err := LoadLocal(bytes.NewReader(global)); err == nil {
		t.Error("LoadLocal accepted a global document")
	}
}
