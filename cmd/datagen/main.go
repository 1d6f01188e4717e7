// Command datagen materializes the reproduction's synthetic datasets and
// labeled query workloads to disk: CSV files for the tables, and one SQL
// query per line (with its true cardinality as a trailing comment) for the
// workloads. Useful for inspecting what the estimators train on and for
// feeding the data into other systems.
//
// Usage:
//
//	datagen -out DIR [-forest-rows N] [-imdb-titles N] [-queries N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qfe/internal/dataset"
	"qfe/internal/table"
	"qfe/internal/workload"
)

func main() {
	out := flag.String("out", "qfe-data", "output directory")
	forestRows := flag.Int("forest-rows", 20_000, "rows in the forest table")
	imdbTitles := flag.Int("imdb-titles", 5_000, "rows in the IMDb title table")
	queries := flag.Int("queries", 1_000, "queries per workload")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	if err := run(*out, *forestRows, *imdbTitles, *queries, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out string, forestRows, imdbTitles, queries int, seed int64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	forest, err := dataset.Forest(dataset.ForestConfig{
		Rows: forestRows, QuantAttrs: 12, BinaryAttrs: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := writeTable(out, forest); err != nil {
		return err
	}

	conj, err := workload.Conjunctive(forest, workload.ConjConfig{
		Count: queries, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := writeWorkload(filepath.Join(out, "forest_conjunctive.sql"), conj); err != nil {
		return err
	}

	mixed, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: queries, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed + 1},
		MaxBranches: 3,
	})
	if err != nil {
		return err
	}
	if err := writeWorkload(filepath.Join(out, "forest_mixed.sql"), mixed); err != nil {
		return err
	}

	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: imdbTitles, Seed: seed})
	if err != nil {
		return err
	}
	for _, tn := range imdb.TableNames() {
		if err := writeTable(out, imdb.Table(tn)); err != nil {
			return err
		}
	}
	schema := dataset.IMDBSchema()
	job, err := workload.JOBLight(imdb, schema, workload.DefaultJOBLightConfig())
	if err != nil {
		return err
	}
	if err := writeWorkload(filepath.Join(out, "joblight.sql"), job); err != nil {
		return err
	}

	fmt.Printf("datagen: wrote forest (%d rows), imdb (%d titles), and 3 workloads to %s\n",
		forest.NumRows(), imdbTitles, out)
	return nil
}

func writeTable(dir string, t *table.Table) error {
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return fmt.Errorf("write %s: %w", t.Name, err)
	}
	return f.Close()
}

func writeWorkload(path string, set workload.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteSet(f, set); err != nil {
		return err
	}
	return f.Close()
}
