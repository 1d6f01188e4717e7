package estimator

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"qfe/internal/bench/qft"
	"qfe/internal/core"
)

// snapshotSeeds serializes one trained local estimator — the one persistable
// kind — and dresses it as the two deleted ones, and adds the format-1
// snapshot in testdata, whose GB payload is per-tree arenas rather than
// packed nodes. These are the fuzzer's starting corpus: mutations of real
// snapshots probe much deeper into the loader than random bytes would.
func snapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	e := env(tb)
	var seeds [][]byte

	loc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := loc.Train(e.train[:300]); err != nil {
		tb.Fatal(err)
	}
	var lb bytes.Buffer
	if err := loc.SaveJSON(&lb); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, lb.Bytes())

	// The two kinds this build no longer reads, at full size: every mutant
	// of them must be refused too (FuzzLoadEstimator checks the kind of
	// whatever loads).
	global, hybrid := deletedKindDocuments(tb, lb.Bytes())
	seeds = append(seeds, global, hybrid)

	return append(seeds, format1Snapshot(tb))
}

// FuzzLoadEstimator is the persistence layer's robustness contract: for ANY
// byte string — valid snapshots, mutated snapshots, garbage — LoadEstimator
// either returns a working estimator or an error. It never panics, and an
// estimator it accepts must answer Estimate without panicking (errors are
// fine: a snapshot can legitimately lack a model for the probe's
// sub-schema). This is what lets the crash-safe store and the serving
// registry load snapshot bytes that survived torn writes and bit rot
// without wrapping every load in a recover.
//
// Explore with `go test -fuzz=FuzzLoadEstimator ./internal/estimator`.
func FuzzLoadEstimator(f *testing.F) {
	seeds := snapshotSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
		// Hand the fuzzer structured near-misses too, not just full
		// snapshots: truncations and envelope edits.
		f.Add(seed[:len(seed)/2])
		f.Add(bytes.Replace(seed, []byte(`"format":`), []byte(`"format":9`), 1))
		f.Add(bytes.Replace(seed, []byte(`"kind":"`), []byte(`"kind":"x`), 1))
	}
	f.Add(withFirstPayload(f, seeds[0], sharedChildPayload)) // a forest that validates node by node but does not compile
	for _, snap := range wrongWidthSnapshots(f) {            // valid models of the wrong input width
		f.Add(snap.data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"kind":"local"}`))
	f.Add([]byte(`{"format":2,"kind":"local"}`))
	f.Add([]byte(nnSnapshot)) // a model type this build does not restore
	f.Add([]byte(`{"format":1,"kind":"global","tables":["forest"]}`))
	f.Add([]byte(`{"format":1,"kind":"hybrid","fallback":"independence"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{0x00, 0xff})

	db := env(f).db
	probe := env(f).test[0].Query
	f.Fuzz(func(t *testing.T, data []byte) {
		est, kind, err := LoadEstimator(bytes.NewReader(data), db)
		if err != nil {
			if est != nil {
				t.Fatalf("LoadEstimator returned both an estimator and error %v", err)
			}
			return
		}
		if est == nil || kind != KindLocal {
			t.Fatalf("LoadEstimator returned estimator %v / kind %q without error", est, kind)
		}
		// Whatever loaded called itself local or nothing: a document of any
		// other kind, the deleted global and hybrid included, is an error.
		var doc struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || (doc.Kind != "" && doc.Kind != KindLocal) {
			t.Fatalf("LoadEstimator accepted a document of kind %q (decode error %v)", doc.Kind, err)
		}
		// GB is the one model type a snapshot restores into.
		if !strings.HasPrefix(est.Name(), "GB + ") {
			t.Fatalf("LoadEstimator accepted a %s snapshot", est.Name())
		}
		// An accepted snapshot must estimate without panicking.
		if v, err := est.Estimate(probe); err == nil && v < 0 {
			t.Fatalf("loaded %s estimator returned negative estimate %v", kind, v)
		}
	})
}

// TestLoadEstimatorMutationSweep is the deterministic slice of the fuzz
// contract that runs in plain `go test`: every seed snapshot is byte-flipped
// and truncated at a sweep of positions, and each mutant must either load
// into a working estimator or error — never panic, never produce an
// estimator that panics.
func TestLoadEstimatorMutationSweep(t *testing.T) {
	db := env(t).db
	probe := env(t).test[0].Query
	check := func(data []byte, tag string) {
		t.Helper()
		est, _, err := LoadEstimator(bytes.NewReader(data), db)
		if err != nil {
			return
		}
		// Mutants that still load (a flipped byte inside a float literal,
		// say) must still behave.
		_, _ = est.Estimate(probe)
	}
	for i, seed := range snapshotSeeds(t) {
		stride := len(seed)/64 + 1
		for pos := 0; pos < len(seed); pos += stride {
			mutant := append([]byte(nil), seed...)
			mutant[pos] ^= 0x5a
			check(mutant, "flip")
			check(seed[:pos], "truncate")
		}
		t.Logf("seed %d: %d bytes, %d mutation points survived", i, len(seed), (len(seed)+stride-1)/stride)
	}
}

// TestLoadEstimatorRejectsForeignFormat pins the dispatcher-level version
// check: a structurally valid snapshot from a different format version is
// refused with a version error before any kind-specific parsing.
func TestLoadEstimatorRejectsForeignFormat(t *testing.T) {
	seed := snapshotSeeds(t)[0]
	future := bytes.Replace(seed, []byte(`"format":2`), []byte(`"format":3`), 1)
	if bytes.Equal(future, seed) {
		t.Fatal("seed snapshot carries no format field to rewrite")
	}
	_, _, err := LoadEstimator(bytes.NewReader(future), env(t).db)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("format 3")) {
		t.Fatalf("future-format load: err = %v, want a format-version error", err)
	}
}
