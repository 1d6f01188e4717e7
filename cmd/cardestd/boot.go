package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"qfe/internal/cli"
	"qfe/internal/estimator"
	"qfe/internal/journal"
	"qfe/internal/serve"
	"qfe/internal/store"
	"qfe/internal/table"
)

// booted is what the boot phase leaves behind: what serving reads, and
// nothing else. The forest environment — the training set (~2.4 KB of bound
// AST per -train query, 4.8 MB at the default 2 000), the snapshot buffer —
// is local to boot and dies when boot returns, so no closure of the serving
// phase can keep it alive by naming it.
type booted struct {
	db  *table.DB
	reg *serve.Registry
	// lc is every model's way into reg. Under -store it also holds the model
	// store and the canary workload, the one part of the labeled set that
	// outlives the boot.
	lc *serve.Lifecycle
	// jnl is the feedback journal (-journal), opened before lc, which judges
	// models on its traffic. arm takes it over; on an error boot closes it.
	jnl *journal.Journal
}

// boot builds the table, draws and labels the workload, opens the journal,
// then recovers, loads or trains the models the daemon starts with and
// registers them.
func boot(o options, out io.Writer) (_ *booted, err error) {
	fmt.Fprintf(out, "building forest environment (%d rows)...\n", o.rows)
	canaryN := 0
	if o.storeDir != "" {
		canaryN = o.canaryN
	}
	env, err := cli.BuildForestEnv(cli.ForestSpec{
		Rows: o.rows, TrainN: o.trainN, TestN: canaryN, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	labeled := len(env.Train) + len(env.Test)
	fmt.Fprintf(out, "built table (%d columns analyzed) in %.2fs; labeled %d queries in %.2fs, %.0f q/s on %d workers\n",
		env.Table.NumCols(), env.DataTime.Seconds(), labeled, env.LabelTime.Seconds(),
		float64(labeled)/env.LabelTime.Seconds(), runtime.GOMAXPROCS(0))
	// Nothing counts rows again: training, publishing and serving read each
	// column's statistics, so the rows and their dictionaries go (DESIGN §6).
	env.DB.DropRows()

	b := &booted{db: env.DB, reg: serve.NewRegistry()}
	b.reg.Wrap = func(est estimator.Estimator) estimator.Estimator { return cli.Chain(b.db, est, o.timeout) }

	if o.journalDir != "" {
		b.jnl, err = journal.Open(o.journalDir, journal.Options{SegmentBytes: o.journalSegSz, Retain: o.journalRetain, FS: o.journalFS})
		if err != nil {
			return nil, fmt.Errorf("open feedback journal: %w", err)
		}
		defer func() {
			if err != nil {
				b.jnl.Close()
			}
		}()
		js := b.jnl.Stats()
		fmt.Fprintf(out, "feedback journal %s: %d sealed segment(s), %d torn tail(s) repaired, %d quarantined\n",
			o.journalDir, js.SealedSegments, js.TornTailsRepaired, js.SegmentsQuarantined)
	}

	// Every model reaches the registry through the lifecycle. -store gives it
	// a store and a canary workload: recovery at boot, canary-gated
	// publishes, rollback; -journal the traffic those publishes are judged on.
	lcfg := serve.LifecycleConfig{
		Registry: b.reg,
		Journal:  b.jnl,
		DB:       b.db,
		Canary:   serve.CanaryConfig{MaxMedian: o.canaryMedian, MaxP95: o.canaryP95},
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open model store: %w", err)
		}
		rep := st.Recovery()
		fmt.Fprintf(out, "model store %s: %d valid generation(s), %d corrupt rejected, %d quarantined, %d temp swept\n",
			o.storeDir, rep.Valid, rep.Corrupt, rep.Quarantined, rep.TempSwept)
		// A copy: env.Test is the tail of the array env.Train heads, and the
		// lifecycle would keep all of it alive.
		lcfg.Store, lcfg.Canary.Workload = st, slices.Clone(env.Test)
	}
	if b.lc, err = serve.NewLifecycle(lcfg); err != nil {
		return nil, err
	}

	recovered := false
	if o.storeDir != "" && o.load == "" {
		pub, ok, err := b.lc.Recover(context.Background(), "boot", true)
		if err != nil {
			return nil, err
		}
		if ok {
			recovered = true
			fmt.Fprintf(out, "recovered %s (%s) from store generation %d: canary %s\n",
				pub.Info.Name, pub.Info.Kind, pub.Info.StoreGeneration, pub.Canary.Reason)
		} else {
			fmt.Fprintln(out, "no recoverable generation in the store; training a boot model")
		}
	}

	if o.load != "" {
		def := o.defName
		for _, pair := range strings.Split(o.load, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("-load wants name=path pairs, got %q", pair)
			}
			if def == "" {
				def = name
			}
			if err := b.load(name, path, name == def, out); err != nil {
				return nil, fmt.Errorf("load %q: %w", name, err)
			}
		}
	} else if !recovered {
		loc, err := cli.NewLocalEstimator(b.db, cli.TrainSpec{Entries: o.entries, Workers: o.workers})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "training boot model %s + %s on %d queries...\n", o.model, o.qft, len(env.Train))
		start := time.Now()
		if err := loc.Train(env.Train); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trained in %v (model size %.1f kB)\n",
			time.Since(start).Round(time.Millisecond), float64(loc.MemoryBytes())/1024)
		var snap bytes.Buffer
		if err := loc.SaveJSON(&snap); err != nil {
			return nil, err
		}
		if o.save != "" {
			if err := os.WriteFile(o.save, snap.Bytes(), 0o644); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "saved boot snapshot to %s\n", o.save)
		}
		// What serves is what -save wrote and what a restart recovers: the
		// lifecycle decodes these bytes like any other snapshot's.
		pub, err := b.lc.Publish(context.Background(), serve.PublishSpec{
			Name: "boot", Source: "boot", Snapshot: snap.Bytes(), MakeDefault: true,
		})
		if err != nil {
			return nil, fmt.Errorf("boot model: %w", err)
		}
		if gen := pub.Info.StoreGeneration; gen != 0 {
			fmt.Fprintf(out, "boot model admitted (canary %s), persisted as generation %d\n", pub.Canary.Reason, gen)
		}
	}
	if o.defName != "" {
		if err := b.reg.SetDefault(o.defName); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// load publishes the snapshot at path under name as POST /v1/models/load
// publishes one. Under -store that is through the canary gate and — made the
// default — persisted as a store generation, the model a rollback manages. A
// snapshot that does not decode, or that the canary refuses, is the error.
func (b *booted) load(name, path string, makeDefault bool, out io.Writer) error {
	snap, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pub, err := b.lc.Publish(context.Background(), serve.PublishSpec{
		Name: name, Source: path, Snapshot: snap, MakeDefault: makeDefault,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s (%s, %s) from %s: canary %s", pub.Info.Name, pub.Info.Kind, pub.Info.Estimator, path, pub.Canary.Reason)
	if gen := pub.Info.StoreGeneration; gen != 0 {
		fmt.Fprintf(out, ", persisted as generation %d", gen)
	}
	fmt.Fprintln(out)
	return nil
}
