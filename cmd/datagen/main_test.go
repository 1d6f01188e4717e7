package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDatagenWritesEverything(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 500, 200, 25, 1); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{
		"forest.csv", "title.csv", "cast_info.csv", "movie_info.csv",
		"movie_info_idx.csv", "movie_companies.csv", "movie_keyword.csv",
		"forest_conjunctive.sql", "forest_mixed.sql", "joblight.sql",
	}
	for _, f := range wantFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}

	// The forest CSV is a header and one record per row, each as wide as it.
	fh, err := os.Open(filepath.Join(dir, "forest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	recs, err := csv.NewReader(fh).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 501 {
		t.Errorf("forest.csv has %d records, want a header and 500 rows", len(recs))
	}

	// Workload files carry one query per line with its cardinality comment.
	data, err := os.ReadFile(filepath.Join(dir, "forest_conjunctive.sql"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 25 {
		t.Errorf("conjunctive workload has %d lines, want 25", len(lines))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "SELECT count(*) FROM forest") {
			t.Fatalf("line %d is not a count query: %q", i, line)
		}
		if !strings.Contains(line, "-- cardinality: ") {
			t.Fatalf("line %d lacks a cardinality comment: %q", i, line)
		}
	}
}

func TestDatagenBadDirectory(t *testing.T) {
	// Writing into a path that is a file must fail cleanly.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(blocker, "sub"), 100, 100, 5, 1); err == nil {
		t.Error("expected error when output dir cannot be created")
	}
}
