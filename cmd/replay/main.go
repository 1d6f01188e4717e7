// Command replay scores saved models against the real traffic captured by
// a cardestd feedback journal (see internal/journal and internal/replay):
// it reads the journal's segments offline — tolerantly, without mutating
// them, so it is safe to point at a live daemon's directory — and streams
// every labeled record through each requested estimator, printing a
// per-model q-error report (median/p95/max, per-table breakdowns). Before
// that it prints how the journal's traffic repeats: records, distinct_texts,
// distinct_fingerprints, and semantic_only — the records whose featurization
// class (core.Fingerprint) had been seen before under a different text, which
// is what the daemon's text-keyed estimate cache recomputes and a class-keyed
// one would have served. With no model given that is the whole report.
//
// Usage:
//
//	replay -journal dir [-snapshot name=path[,name=path...]] [-store dir]
//	       [-rows 20000] [-seed 1] [-derive-canary 0] [-json]
//
// Models come from two places, combinable (with neither, only the journal
// summary and the traffic line are printed):
//
//   - -snapshot name=path pairs load persistence-layer snapshots (the
//     -save output of cardest/cardestd, or anything POST /v1/models/load
//     accepts);
//   - -store replays against every valid generation of a crash-safe model
//     store directory, named gen-N (published-as names shown alongside).
//
// The forest database is rebuilt from -rows/-seed (match the serving
// daemon's flags) so snapshots schema-validate and string literals bind.
//
// -derive-canary N additionally prints the traffic sample a cardestd with
// -canary N judges a model on when a load or a rollback brings one to its
// lifecycle (replay.TrafficCanary: the deterministic reservoir sample at
// replay.CanarySeed, less the queries that do not bind against the rebuilt
// table). The daemon uses it when its live model passes it, and its held-out
// set otherwise.
//
// -json emits the reports as one JSON document for scripting; the default
// is a human-readable table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/workload"
)

type options struct {
	journalDir   string
	snapshots    string
	storeDir     string
	rows         int
	seed         int64
	deriveCanary int
	asJSON       bool
}

func main() {
	var o options
	flag.StringVar(&o.journalDir, "journal", "", "feedback journal directory to replay (required)")
	flag.StringVar(&o.snapshots, "snapshot", "", "comma-separated name=path model snapshots to score")
	flag.StringVar(&o.storeDir, "store", "", "crash-safe model store; every valid generation is scored")
	flag.IntVar(&o.rows, "rows", 20_000, "forest table rows (match the serving daemon)")
	flag.Int64Var(&o.seed, "seed", 1, "generation seed (match the serving daemon)")
	flag.IntVar(&o.deriveCanary, "derive-canary", 0, "also derive and print an N-query traffic canary (0 skips)")
	flag.BoolVar(&o.asJSON, "json", false, "emit reports as JSON")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

type namedEst struct {
	name string
	est  estimator.Estimator
}

func run(o options, out io.Writer) error {
	if o.journalDir == "" {
		return fmt.Errorf("-journal is required")
	}
	records, rep, err := journal.Read(nil, o.journalDir)
	if err != nil {
		return fmt.Errorf("read journal %s: %w", o.journalDir, err)
	}
	fmt.Fprintf(out, "journal %s: %d record(s) across %d segment(s)", o.journalDir, rep.Records, rep.Segments)
	if rep.TornTails > 0 || rep.CorruptSegments > 0 || rep.Unreadable > 0 || rep.Quarantined > 0 {
		fmt.Fprintf(out, " (%d torn tail(s) tolerated, %d corrupt skipped, %d unreadable skipped, %d quarantined)",
			rep.TornTails, rep.CorruptSegments, rep.Unreadable, rep.Quarantined)
	}
	fmt.Fprintln(out)
	if len(records) == 0 {
		return fmt.Errorf("journal holds no records")
	}
	traffic := replay.Traffic(records)
	if !o.asJSON {
		fmt.Fprintf(out, "traffic: records %d | distinct_texts %d | distinct_fingerprints %d | semantic_only %d (%.2f%% of records)\n",
			traffic.Records, traffic.DistinctTexts, traffic.DistinctFingerprints, traffic.SemanticOnly, 100*traffic.SemanticOnlyShare())
	}

	forest, err := dataset.Forest(dataset.ForestConfig{Rows: o.rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: o.seed})
	if err != nil {
		return err
	}
	db := table.NewDB()
	db.MustAdd(forest)

	ests, err := loadEstimators(o, db)
	if err != nil {
		return err
	}
	if len(ests) == 0 && o.storeDir != "" && o.deriveCanary <= 0 {
		return fmt.Errorf("nothing to score: store %s holds no loadable generation", o.storeDir)
	}

	reports := make([]replay.Report, 0, len(ests))
	for _, ne := range ests {
		r := replay.Replay(ne.est, records, db)
		r.Model = ne.name // registry-style name, not the estimator's self-description
		reports = append(reports, r)
	}

	canary := replay.TrafficCanary(records, o.deriveCanary, db)
	if o.asJSON {
		doc := map[string]any{"journal": rep, "traffic": traffic, "reports": reports}
		if o.deriveCanary > 0 {
			doc["canary"] = canaryDoc(canary)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	for _, r := range reports {
		printReport(out, r)
	}
	if o.deriveCanary > 0 {
		fmt.Fprintf(out, "\ntraffic-derived canary (%d of %d requested):\n", len(canary), o.deriveCanary)
		for _, l := range canary {
			fmt.Fprintf(out, "  card=%-8d %s\n", l.Card, l.Query)
		}
	}
	return nil
}

// loadEstimators gathers -snapshot pairs and -store generations.
func loadEstimators(o options, db *table.DB) ([]namedEst, error) {
	var ests []namedEst
	if o.snapshots != "" {
		for _, pair := range strings.Split(o.snapshots, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("-snapshot wants name=path pairs, got %q", pair)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			est, _, err := estimator.LoadEstimator(bytes.NewReader(data), db)
			if err != nil {
				return nil, fmt.Errorf("load %q from %s: %w", name, path, err)
			}
			ests = append(ests, namedEst{name: name, est: est})
		}
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", o.storeDir, err)
		}
		for _, g := range st.Generations() {
			payload, man, err := st.Read(g.Number)
			if err != nil {
				continue // rotted since Open; the lifecycle quarantines these
			}
			est, _, err := estimator.LoadEstimator(bytes.NewReader(payload), db)
			if err != nil {
				continue
			}
			name := fmt.Sprintf("gen-%d", g.Number)
			if man.Name != "" {
				name += " (" + man.Name + ")"
			}
			ests = append(ests, namedEst{name: name, est: est})
		}
	}
	return ests, nil
}

func canaryDoc(ws workload.Set) []map[string]any {
	out := make([]map[string]any, len(ws))
	for i, l := range ws {
		out[i] = map[string]any{"sql": l.Query.String(), "card": l.Card}
	}
	return out
}

func printReport(out io.Writer, r replay.Report) {
	fmt.Fprintf(out, "\nmodel %s\n", r.Model)
	fmt.Fprintf(out, "  records %d | scored %d | unlabeled %d | unparsed %d | failed %d\n",
		r.Records, r.Scored, r.Unlabeled, r.Unparsed, r.Failed)
	if r.Scored == 0 {
		fmt.Fprintln(out, "  no labeled records to score")
		return
	}
	fmt.Fprintf(out, "  q-error median %.3f | p95 %.3f | max %.3f\n", r.Median, r.P95, r.Max)
	keys := make([]string, 0, len(r.PerTable))
	for k := range r.PerTable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ts := r.PerTable[k]
		fmt.Fprintf(out, "  %-24s %5d queries | median %.3f | p95 %.3f | max %.3f\n",
			k, ts.Queries, ts.Median, ts.P95, ts.Max)
	}
}
