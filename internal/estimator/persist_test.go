package estimator

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

func TestSaveLoadLocalGB(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor: NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train[:500]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLocal(&buf)
	if err == nil {
		err = back.ValidateSchema(e.db) // maps the restored metas onto the columns queries are bound against
	}
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != loc.Name() {
		t.Errorf("restored Name = %q, want %q", back.Name(), loc.Name())
	}
	if back.NumModels() != loc.NumModels() {
		t.Errorf("restored NumModels = %d, want %d", back.NumModels(), loc.NumModels())
	}
	// Restored estimates must be bit-identical — no row access needed, only
	// the schema the queries were bound against.
	for _, l := range e.test[:50] {
		want, err := loc.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("restored estimate %v != original %v for %s", got, want, l.Query)
		}
	}
}

func TestSaveLoadLocalNN(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "range",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: false},
		NewRegressor: NewNNFactory(smallNN()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train[:400]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLocal(&buf)
	if err == nil {
		err = back.ValidateSchema(e.db)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range e.test[:30] {
		want, err := loc.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("restored NN estimate %v != original %v", got, want)
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 8, AttrSel: false},
		NewRegressor: NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Saving an untrained estimator is fine (no models), and loading it
	// yields an estimator that errors on Estimate.
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLocal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumModels() != 0 {
		t.Errorf("untrained round trip has %d models", back.NumModels())
	}
}

func TestLoadLocalErrors(t *testing.T) {
	if _, err := LoadLocal(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadLocal(strings.NewReader(`{"format":99}`)); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := LoadLocal(strings.NewReader(`{"format":1,"qft":"conjunctive","modelType":"SVM"}`)); err == nil {
		t.Error("unknown model type accepted")
	}
	if _, err := LoadLocal(strings.NewReader(`{"format":1,"qft":"bogus","modelType":"GB"}`)); err == nil {
		t.Error("unknown QFT accepted only at model build; must fail on use")
	}
}

// savedGB trains a small GB-backed local and returns its serialized bytes.
func savedGB(t *testing.T) []byte {
	t.Helper()
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor: NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train[:400]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadLocalRejectsTruncatedFile(t *testing.T) {
	data := savedGB(t)
	// A partial write (disk full, killed process) must fail loudly at every
	// cut point, never yield a silently partial estimator.
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.99} {
		cut := data[:int(float64(len(data))*frac)]
		if _, err := LoadLocal(bytes.NewReader(cut)); err == nil {
			t.Errorf("truncation to %d/%d bytes accepted", len(cut), len(data))
		}
	}
}

func TestLoadLocalRejectsWrongKindPayload(t *testing.T) {
	// An NN weights file relabeled as GB unmarshals "successfully" into a
	// gb.Model with zero trees and zero dim; structural validation must
	// catch it.
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "range",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: false},
		NewRegressor: NewNNFactory(smallNN()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train[:400]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	relabeled := strings.Replace(buf.String(), `"modelType":"NN"`, `"modelType":"GB"`, 1)
	if relabeled == buf.String() {
		t.Fatal("relabeling did not apply — saved format changed?")
	}
	if _, err := LoadLocal(strings.NewReader(relabeled)); err == nil {
		t.Fatal("NN payload accepted as a GB model")
	}
}

// withFirstPayload returns the saved local estimator data with its first
// sub-schema's model payload replaced.
func withFirstPayload(tb testing.TB, data []byte, payload string) []byte {
	tb.Helper()
	var s savedLocal
	if err := json.Unmarshal(data, &s); err != nil {
		tb.Fatal(err)
	}
	if len(s.Models) == 0 {
		tb.Fatal("saved estimator has no models")
	}
	s.Models[0].Payload = json.RawMessage(payload)
	out, err := json.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestLoadLocalRejectsCorruptedTreePayload(t *testing.T) {
	data := savedGB(t)
	corruptions := []struct {
		name    string
		payload string
	}{
		{"no trees", `{"cfg":{},"base":1,"trees":[],"dim":3}`},
		{"empty tree", `{"cfg":{},"base":1,"trees":[{"nodes":[]}],"dim":3}`},
		{"dangling child index", `{"cfg":{},"base":1,"dim":3,"trees":[{"nodes":[{"f":0,"t":0.5,"l":7,"r":9}]}]}`},
		{"self-loop child", `{"cfg":{},"base":1,"dim":3,"trees":[{"nodes":[{"f":0,"t":0.5,"l":0,"r":0}]}]}`},
		{"feature out of range", `{"cfg":{},"base":1,"dim":3,"trees":[{"nodes":[{"f":12,"t":0.5,"l":1,"r":2},{"leaf":true,"v":1},{"leaf":true,"v":2}]}]}`},
		{"zero dim", `{"cfg":{},"base":1,"dim":0,"trees":[{"nodes":[{"leaf":true,"v":1}]}]}`},
		{"packed: no roots", `{"cfg":{},"base":1,"dim":3,"feat":[-1],"thr":[1],"left":[0]}`},
		{"packed: child past its tree", `{"cfg":{},"base":1,"dim":3,"roots":[0,1],"feat":[0,-1,-1],"thr":[0.5,1,2],"left":[1,0,0]}`},
		{"packed: child before its parent", `{"cfg":{},"base":1,"dim":3,"roots":[0],"feat":[-1,0,-1],"thr":[1,0.5,2],"left":[0,0,0]}`},
		{"packed: feature out of range", `{"cfg":{},"base":1,"dim":3,"roots":[0],"feat":[12,-1,-1],"thr":[0.5,1,2],"left":[1,0,0]}`},
		{"packed: arrays of different lengths", `{"cfg":{},"base":1,"dim":3,"roots":[0],"feat":[0,-1,-1],"thr":[0.5,1],"left":[1,0,0]}`},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadLocal(bytes.NewReader(withFirstPayload(t, data, c.payload))); err == nil {
				t.Errorf("corrupted payload (%s) accepted", c.name)
			}
		})
	}
}

// sharedChildPayload is a format-1 forest whose nodes are each in range —
// child ids inside the tree and above their parent's — but in which nodes 1
// and 2 of tree 1 both claim node 4. It walks and terminates, so it used to
// be served by the per-tree interpreter; it cannot be packed into a flat
// forest, and there is no other interpreter now.
const sharedChildPayload = `{"cfg":{"LearningRate":0.1},"base":1,"dim":3,"trees":[` +
	`{"nodes":[{"leaf":true,"v":1}]},` +
	`{"nodes":[{"f":0,"t":0.5,"l":1,"r":2},{"f":1,"t":0.2,"l":3,"r":4},{"f":1,"t":0.8,"l":4,"r":5},` +
	`{"leaf":true,"v":1},{"leaf":true,"v":2},{"leaf":true,"v":3}]}]}`

// TestLoadEstimatorRejectsUncompilableForest: a snapshot whose format-1
// forest cannot be packed is a load error that names the tree, not an
// estimator.
func TestLoadEstimatorRejectsUncompilableForest(t *testing.T) {
	data := withFirstPayload(t, savedGB(t), sharedChildPayload)
	est, _, err := LoadEstimator(bytes.NewReader(data), env(t).db)
	if err == nil {
		t.Fatalf("loaded %s from a forest with a shared child", est.Name())
	}
	if !strings.Contains(err.Error(), "tree 1 node 2") {
		t.Errorf("err = %v, want it to name tree 1 node 2", err)
	}
}

// TestFileWorkloadJourney exercises the full downstream-user journey:
// generate + label a workload, write it to the textual workload format,
// read it back, train from the file-loaded queries, persist the trained
// estimator, reload it, and estimate — the offline-train / online-estimate
// deployment the package is built for.
func TestFileWorkloadJourney(t *testing.T) {
	e := env(t)

	var wl bytes.Buffer
	if err := workload.WriteSet(&wl, e.train[:400]); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.ReadSet(&wl, e.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 400 {
		t.Fatalf("loaded %d queries, want 400", len(loaded))
	}

	loc, err := NewLocal(e.db, LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor: NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(loaded); err != nil {
		t.Fatal(err)
	}

	var model bytes.Buffer
	if err := loc.SaveJSON(&model); err != nil {
		t.Fatal(err)
	}
	shipped, err := LoadLocal(&model)
	if err == nil {
		err = shipped.ValidateSchema(e.db)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(shipped, e.test[:100])
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shipped estimator on held-out queries: %v", sum)
	if sum.Median > 5 {
		t.Errorf("shipped estimator median %v, want < 5", sum.Median)
	}
}

// wrongWidthSnapshots are real snapshots relabelled from the conjunctive QFT
// to range — what a daemon restarted with another -qft or -entries finds in
// its store. The model inside is a valid one of its kind; only its input
// width disagrees with the featurizer the loader rebuilds around it.
func wrongWidthSnapshots(tb testing.TB) []namedSnapshot {
	tb.Helper()
	e := env(tb)
	opts := core.Options{MaxEntriesPerAttr: 16, AttrSel: true}
	gbCfg, nnCfg := smallGB(), smallNN()
	gbCfg.NumTrees, nnCfg.Epochs = 5, 2
	relabelled := func(est *Local, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		if err := est.Train(e.train[:100]); err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := est.SaveJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"qft":"conjunctive"`)) {
			tb.Fatal("the snapshot does not name its QFT as expected")
		}
		return bytes.Replace(buf.Bytes(), []byte(`"qft":"conjunctive"`), []byte(`"qft":"range"`), 1)
	}
	return []namedSnapshot{
		{"local GB", relabelled(NewLocal(e.db, LocalConfig{QFT: "conjunctive", Opts: opts, NewRegressor: NewGBFactory(gbCfg)}))},
		{"local NN", relabelled(NewLocal(e.db, LocalConfig{QFT: "conjunctive", Opts: opts, NewRegressor: NewNNFactory(nnCfg)}))},
	}
}

type namedSnapshot struct {
	name string
	data []byte
}

// TestLoadEstimatorRejectsWrongInputWidth: such a snapshot used to load —
// through LoadEstimator, hence hot-load and store recovery — and panic in
// Predict on the first request.
func TestLoadEstimatorRejectsWrongInputWidth(t *testing.T) {
	e := env(t)
	for _, snap := range wrongWidthSnapshots(t) {
		t.Run(snap.name, func(t *testing.T) {
			est, _, err := LoadEstimator(bytes.NewReader(snap.data), e.db)
			if err == nil {
				defer func() {
					t.Fatalf("the snapshot loaded, and Estimate panicked: %v", recover())
				}()
				v, err := est.Estimate(e.test[0].Query)
				t.Fatalf("the snapshot loaded and estimated %v (error %v)", v, err)
			}
			if !strings.Contains(err.Error(), "expects dim") {
				t.Errorf("err = %v, want it to name the two widths", err)
			}
		})
	}
}

// format1Snapshot is testdata/v1_gb_local.json: a GB-backed local estimator
// over env's table, saved in format 1 — its payload the per-tree arenas — by
// the build before format 2. testdata/v1_gb_local_estimates.json holds what
// that build estimated with it for env's first 100 test queries.
func format1Snapshot(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1_gb_local.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"format":1,`)) || !bytes.Contains(data, []byte(`"trees":`)) {
		tb.Fatal("testdata/v1_gb_local.json is not a format-1 GB snapshot")
	}
	return data
}

// TestLoadsFormat1Snapshot: an upgraded daemon's store holds snapshots of the
// format before this one, and a generation LoadEstimator refuses is
// quarantined. The format-1 snapshot loads, answers every recorded query
// exactly as the build that wrote it did, and saves as format 2 — 39 % of
// the bytes here, the table's metadata included — which loads and answers
// the same again.
func TestLoadsFormat1Snapshot(t *testing.T) {
	e := env(t)
	data := format1Snapshot(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "v1_gb_local_estimates.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recorded []struct {
		SQL      string  `json:"sql"`
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	if len(recorded) != 100 {
		t.Fatalf("%d recorded estimates, want 100", len(recorded))
	}
	answers := func(est Estimator) {
		t.Helper()
		for _, r := range recorded {
			q, err := sqlparse.Parse(r.SQL)
			if err == nil {
				err = exec.Bind(q, e.db)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(r.Estimate) {
				t.Fatalf("%s: estimate %v, the format-1 build's %v", r.SQL, got, r.Estimate)
			}
		}
	}

	est, kind, err := LoadEstimator(bytes.NewReader(data), e.db)
	if err != nil || kind != KindLocal {
		t.Fatalf("format-1 snapshot: kind %q, error %v", kind, err)
	}
	answers(est)
	var v2 bytes.Buffer
	if err := est.(*Local).SaveJSON(&v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v2.Bytes(), []byte(`{"format":2,`)) || bytes.Contains(v2.Bytes(), []byte(`"trees"`)) {
		t.Fatalf("a loaded format-1 snapshot saves as %.40q…, want format 2 with packed nodes", v2.String())
	}
	t.Logf("format 1: %d bytes, format 2: %d bytes", len(data), v2.Len())
	if 4*v2.Len() > 3*len(data) {
		t.Errorf("format 2 takes %d bytes against format 1's %d, want under three quarters", v2.Len(), len(data))
	}
	est2, _, err := LoadEstimator(bytes.NewReader(v2.Bytes()), e.db)
	if err != nil {
		t.Fatal(err)
	}
	answers(est2)
}

// TestSnapshotRoundTripIsByteStable: a format-2 snapshot that is loaded and
// saved again is the same bytes, so a model moved between stores, or
// re-published, is recognisably the same file.
func TestSnapshotRoundTripIsByteStable(t *testing.T) {
	for _, factory := range []RegressorFactory{NewGBFactory(smallGB()), NewNNFactory(smallNN())} {
		loc, err := NewLocal(env(t).db, LocalConfig{
			QFT:          "conjunctive",
			Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
			NewRegressor: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := loc.Train(env(t).train[:300]); err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if err := loc.SaveJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := LoadLocal(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := back.SaveJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: save → load → save changed the snapshot (%d → %d bytes)", loc.Name(), first.Len(), second.Len())
		}
	}
}
