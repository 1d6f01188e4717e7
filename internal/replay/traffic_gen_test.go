package replay_test

import (
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/workload"
)

// TestTrafficOfGenerators measures what keying the estimate cache on the text
// forgoes on the traffic this repository can produce: each workload generator
// journaled as a daemon would (the text it renders, the fingerprint of the
// query), counted by Traffic. EXPERIMENTS.md records the numbers this logs.
// The bound is the break-even of DESIGN §6: fingerprinting every request
// (3.4 us) buys a saved estimate (7.2 us) only on semantic-only repeats, so
// the class key pays above 3.4/7.2 of all records. The generators sit one to
// three orders of magnitude below it — they draw literals from wide domains
// and never respell on purpose; what repeats a class under a new text is a
// small-domain coincidence (a join query's predicates drawn in another order).
func TestTrafficOfGenerators(t *testing.T) {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 20_000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 1_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 8192
	if testing.Short() {
		n = 1024
	}
	conj := workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1_000_001}
	join := workload.DefaultJOBLightConfig()
	join.Count, join.Seed = n/4, 7
	for _, g := range []struct {
		name string
		gen  func() (workload.Set, error)
	}{
		{"conjunctive", func() (workload.Set, error) { return workload.Conjunctive(forest, conj) }},
		{"mixed (cmd/bench's)", func() (workload.Set, error) {
			return workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
		}},
		{"group-by", func() (workload.Set, error) {
			return workload.GroupBy(forest, workload.GroupByConfig{Count: n, MaxAttrs: 8, MaxGroupAttrs: 3, MaxNotEquals: 5, Seed: 3})
		}},
		{"job-light joins", func() (workload.Set, error) { return workload.JoinTraining(imdb, dataset.IMDBSchema(), join) }},
	} {
		set, err := g.gen()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		records := make([]journal.Record, len(set))
		for i, l := range set {
			records[i] = journal.Record{SQL: l.Query.String(), Fingerprint: core.Fingerprint(l.Query)}
		}
		st := replay.Traffic(records)
		t.Logf("%-20s records %d | distinct_texts %d | distinct_fingerprints %d | semantic_only %d (%.2f%%)",
			g.name, st.Records, st.DistinctTexts, st.DistinctFingerprints, st.SemanticOnly, 100*st.SemanticOnlyShare())
		if breakEven := 3.4 / 7.2; st.SemanticOnlyShare() > breakEven {
			t.Errorf("%s: %.2f%% of records are semantic-only repeats, above the %.0f%% at which a class key pays for itself", g.name, 100*st.SemanticOnlyShare(), 100*breakEven)
		}
	}
}
