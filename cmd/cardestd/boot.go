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
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
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
	// lc is nil without -store. It holds the model store and the canary
	// workload, the one part of the labeled set that outlives the boot.
	lc *serve.Lifecycle
	// train is the -train queries, set only under -retrain: the retrainer
	// relabels and refits on them, and is the one holder they have.
	train []*sqlparse.Query
}

// boot builds the table, draws and labels the workload, then recovers, loads
// or trains the models the daemon starts with and registers them.
func boot(o options, out io.Writer) (*booted, error) {
	fmt.Fprintf(out, "building forest environment (%d rows)...\n", o.rows)
	canaryN := 0
	if o.storeDir != "" {
		canaryN = o.canaryN
	}
	env, err := cli.BuildForestEnv(cli.ForestSpec{
		Rows: o.rows, TrainN: o.trainN, TestN: canaryN, Seed: o.seed, QFT: o.qft,
	})
	if err != nil {
		return nil, err
	}
	labeled := len(env.Train) + len(env.Test)
	fmt.Fprintf(out, "built table in %.2fs; labeled %d queries in %.2fs, %.0f q/s on %d workers (%d column dictionaries built in %.1f ms)\n",
		env.DataTime.Seconds(), labeled, env.LabelTime.Seconds(),
		float64(labeled)/env.LabelTime.Seconds(), runtime.GOMAXPROCS(0),
		env.DictBuilt, float64(env.DictTime.Microseconds())/1000)
	// Nothing counts rows again until a retrain, which builds them anew.
	env.DB.DropDictionaries()

	b := &booted{db: env.DB, reg: serve.NewRegistry()}
	b.reg.Wrap = func(est estimator.Estimator) estimator.Estimator { return cli.Chain(b.db, est, o.timeout) }

	// -store arms the crash-safe lifecycle: recovery at boot, canary-gated
	// publishes, supervised rollback.
	recovered := false
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open model store: %w", err)
		}
		rep := st.Recovery()
		fmt.Fprintf(out, "model store %s: %d valid generation(s), %d corrupt rejected, %d quarantined, %d temp swept\n",
			o.storeDir, rep.Valid, rep.Corrupt, rep.Quarantined, rep.TempSwept)
		b.lc, err = serve.NewLifecycle(serve.LifecycleConfig{
			Registry: b.reg,
			Store:    st,
			DB:       b.db,
			Canary: serve.CanaryConfig{
				// A copy: env.Test is the tail of the array env.Train heads,
				// and the lifecycle would keep all of it alive.
				Workload:  slices.Clone(env.Test),
				MaxMedian: o.canaryMedian,
				MaxP95:    o.canaryP95,
			},
		})
		if err != nil {
			return nil, err
		}
		if o.load == "" {
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
	}

	if o.load != "" {
		for _, pair := range strings.Split(o.load, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("-load wants name=path pairs, got %q", pair)
			}
			info, err := b.reg.LoadFile(name, path, b.db, false)
			if err != nil {
				return nil, fmt.Errorf("load %q: %w", name, err)
			}
			fmt.Fprintf(out, "loaded %s (%s, %s) from %s\n", info.Name, info.Kind, info.Estimator, path)
		}
	} else if !recovered {
		loc, err := newLocal(b.db, o)
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
		if b.lc != nil {
			pub, err := b.lc.Publish(context.Background(), serve.PublishSpec{
				Name: "boot", Est: loc, Kind: estimator.KindLocal, Source: "boot",
				Snapshot: snap.Bytes(), MakeDefault: true,
			})
			if err != nil {
				return nil, fmt.Errorf("boot model: %w", err)
			}
			fmt.Fprintf(out, "boot model admitted (canary %s), persisted as generation %d\n",
				pub.Canary.Reason, pub.Info.StoreGeneration)
		} else if _, err := b.reg.Register("boot", loc, serve.ModelInfo{Kind: estimator.KindLocal, Source: "boot"}); err != nil {
			return nil, err
		}
	}
	if o.defName != "" {
		if err := b.reg.SetDefault(o.defName); err != nil {
			return nil, err
		}
	}

	if o.retrain {
		b.train = make([]*sqlparse.Query, len(env.Train))
		for i := range env.Train {
			b.train[i] = env.Train[i].Query
		}
	}
	return b, nil
}

// newLocal builds the untrained estimator of the boot model's family: what
// boot trains, and what every retrain refits.
func newLocal(db *table.DB, o options) (*estimator.Local, error) {
	return cli.NewLocalEstimator(db, cli.TrainSpec{
		QFT: o.qft, Model: o.model, Entries: o.entries, Workers: o.workers,
	})
}
