package qfe_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qfe/internal/cli"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
)

// heldOutN is the number of held-out queries scored per seed: the tail of
// the boot's own draw, after its -train training queries.
const heldOutN = 4000

// TestServedQuality holds the q-error of the model cardestd serves at its
// default flags to api/quality.txt. For seeds 1-3 it builds the boot model
// the way cmd/cardestd's boot does — the forest table and mixed AND/OR
// workload at the daemon's -rows, -train and -entries defaults (read off its
// flag define calls), the GB + complex estimator trained on the -train
// queries, its snapshot bytes decoded as the lifecycle decodes them and
// wrapped in cli.Chain — and scores the heldOutN queries drawn after the
// training ones through the chain, with no deadline. Per seed the file has
// n, median, p95, p99 and max of the q-error, over all queries and per
// count k of constrained attributes, and how many answers each stage gave
// and how many were degraded. Values are written exactly (shortest
// round-trip form), so a change that moves any estimate of these 12 000
// queries shows as a diff naming the seed and k.
//
// After a change meant to move quality, rewrite the file with
//
//	go test . -run TestServedQuality -update
//
// and commit the diff: it is the claim. Under -short only seed 1 is scored
// and compared with the committed seed=1 lines. Off amd64 the test skips:
// Go may fuse a multiply and an add there, which changes the last bits.
func TestServedQuality(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if *update {
			t.Fatalf("-update on %s would commit q-errors that may differ from amd64's in the last bits", runtime.GOARCH)
		}
		t.Skipf("q-errors are compared bit for bit on amd64 only; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() && *update {
		t.Fatal("-update rewrites every seed; run it without -short")
	}
	_, defaults := flags(t, "cmd/cardestd")
	intDefault := func(name string) int {
		v, err := strconv.ParseInt(defaults[name], 0, 0)
		if err != nil {
			t.Fatalf("cmd/cardestd %s: no integer default in its define call (%q): %v", name, defaults[name], err)
		}
		return int(v)
	}
	rows, train, entries := intDefault("-rows"), intDefault("-train"), intDefault("-entries")

	seeds := []int64{1, 2, 3}
	var lines []string
	if testing.Short() {
		seeds = seeds[:1]
		// The other seeds' committed lines stand for themselves.
		for _, l := range apiLines(t, "quality.txt") {
			if !strings.HasPrefix(l, "seed=1 ") {
				lines = append(lines, l)
			}
		}
	}
	for _, seed := range seeds {
		lines = append(lines, servedQuality(t, rows, train, entries, seed)...)
	}
	checkFile(t, "quality.txt", lines)
}

// servedQuality builds seed's boot model as cardestd does and returns its
// quality.txt lines.
func servedQuality(t *testing.T, rows, train, entries int, seed int64) []string {
	t.Helper()
	env, err := cli.BuildForestEnv(cli.ForestSpec{Rows: rows, TrainN: train, TestN: heldOutN, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// As boot does: everything after labeling reads column statistics only.
	env.DB.DropRows()
	loc, err := cli.NewLocalEstimator(env.DB, cli.TrainSpec{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(env.Train); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := loc.SaveJSON(&snap); err != nil {
		t.Fatal(err)
	}
	est, _, err := estimator.LoadEstimator(&snap, env.DB)
	if err != nil {
		t.Fatal(err)
	}
	chain := cli.Chain(env.DB, est)

	all := make([]float64, 0, len(env.Test))
	byK := make([][]float64, env.Table.NumCols()+1) // by constrained attributes
	stages := map[string]int{}
	degraded := 0
	for _, l := range env.Test {
		res := chain.EstimateDetailed(context.Background(), l.Query)
		q := metrics.QError(float64(l.Card), res.Estimate)
		all = append(all, q)
		k := sqlparse.NumAttributes(l.Query)
		byK[k] = append(byK[k], q)
		stages[res.Stage]++
		if res.Degraded {
			degraded++
		}
	}

	prefix := fmt.Sprintf("seed=%d ", seed)
	lines := []string{prefix + "k=all " + summary(all)}
	for k, qerrs := range byK {
		if len(qerrs) > 0 {
			lines = append(lines, prefix+"k="+strconv.Itoa(k)+" "+summary(qerrs))
		}
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("%sstage=%q n=%d", prefix, name, stages[name]))
	}
	return append(lines, fmt.Sprintf("%sdegraded n=%d", prefix, degraded))
}

// summary renders n and the median, p95, p99 and max of qerrs, each float
// in the shortest form that parses back to the same bits.
func summary(qerrs []float64) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("n=%d median=%s p95=%s p99=%s max=%s", len(qerrs),
		g(metrics.Quantile(qerrs, 0.50)), g(metrics.Quantile(qerrs, 0.95)),
		g(metrics.Quantile(qerrs, 0.99)), g(metrics.Quantile(qerrs, 1)))
}
