// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), one target per artifact, plus the design ablations from
// DESIGN.md and microbenchmarks for the featurization hot path.
//
// Artifact benchmarks execute a whole experiment per iteration (training
// included), so the interesting output is the report they b.Log, not ns/op;
// run them with -benchtime=1x. The scale profile follows QFE_SCALE
// ("smoke", "default", "full").
package qfe_test

import (
	"sync"
	"testing"

	"qfe/internal/bench"
	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

var (
	envOnce   sync.Once
	sharedEnv *bench.Env
)

// experimentEnv returns the process-wide environment so consecutive
// benchmarks share datasets and labeled workloads.
func experimentEnv() *bench.Env {
	envOnce.Do(func() {
		sharedEnv = bench.NewEnv(bench.CurrentScale())
	})
	return sharedEnv
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	env := experimentEnv()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(env)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkFigure1_QFTxModel regenerates Figure 1 (q-error boxplots for
// every QFT × model combination on forest).
func BenchmarkFigure1_QFTxModel(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure2_ErrorByAttrs regenerates Figure 2 (GB errors per QFT by
// number of attributes).
func BenchmarkFigure2_ErrorByAttrs(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3_ErrorByPreds regenerates Figure 3 (GB errors per QFT by
// number of predicates).
func BenchmarkFigure3_ErrorByPreds(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4_VsEstablished regenerates Figure 4 (best QFT × model vs
// Postgres-style, sampling, and MSCN baselines).
func BenchmarkFigure4_VsEstablished(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5_QueryDrift regenerates Figure 5 (query drift).
func BenchmarkFigure5_QueryDrift(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable1_JOBLightLocal regenerates Table 1 (JOB-light, local
// NN/GB × simple/range/conjunctive).
func BenchmarkTable1_JOBLightLocal(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTable2_LocalVsGlobal regenerates Table 2 (MSCN variants vs local
// NN on JOB-light).
func BenchmarkTable2_LocalVsGlobal(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkTable3_AttrSel regenerates Table 3 (per-attribute selectivity
// estimate on/off).
func BenchmarkTable3_AttrSel(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTable4_EndToEnd regenerates Table 4 (end-to-end run times under
// three cardinality sources).
func BenchmarkTable4_EndToEnd(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkTable5_VectorLength regenerates Table 5 (accuracy vs feature
// vector length).
func BenchmarkTable5_VectorLength(b *testing.B) { runExperiment(b, "tab5") }

// BenchmarkTable6_Convergence regenerates Table 6 (training convergence).
func BenchmarkTable6_Convergence(b *testing.B) { runExperiment(b, "tab6") }

// BenchmarkTable7_QFTTime regenerates Table 7's report (featurization time
// and estimator memory). The per-QFT ns/op microbenchmarks below measure
// the same hot path with the standard benchmark machinery.
func BenchmarkTable7_QFTTime(b *testing.B) { runExperiment(b, "tab7") }

// Ablation benchmarks (DESIGN.md section 4).

// BenchmarkAblationGBSplit compares histogram vs exact split search.
func BenchmarkAblationGBSplit(b *testing.B) { runExperiment(b, "abl1") }

// BenchmarkAblationHalfEntries compares ½ entries vs binarized partitions.
func BenchmarkAblationHalfEntries(b *testing.B) { runExperiment(b, "abl2") }

// BenchmarkAblationLDEMerge compares max-merge vs sum-clamp merge in LDE.
func BenchmarkAblationLDEMerge(b *testing.B) { runExperiment(b, "abl3") }

// BenchmarkAblationLabelTransform compares log2 vs raw labels.
func BenchmarkAblationLabelTransform(b *testing.B) { runExperiment(b, "abl4") }

// Extension benchmarks — the paper-sketched ideas made runnable (see
// DESIGN.md's X1..X7 rows and EXPERIMENTS.md).

// BenchmarkExtensionModelZoo runs ext1 (Section 2.2 simpler-models gap).
func BenchmarkExtensionModelZoo(b *testing.B) { runExperiment(b, "ext1") }

// BenchmarkExtensionAdaptiveEntries runs ext2 (attribute-specific n).
func BenchmarkExtensionAdaptiveEntries(b *testing.B) { runExperiment(b, "ext2") }

// BenchmarkExtensionPartitioning runs ext3 (histogram partitioning).
func BenchmarkExtensionPartitioning(b *testing.B) { runExperiment(b, "ext3") }

// BenchmarkExtensionDataDrift runs ext4 (drift reconstruction).
func BenchmarkExtensionDataDrift(b *testing.B) { runExperiment(b, "ext4") }

// BenchmarkExtensionIEP runs ext5 (inclusion-exclusion vs LDE).
func BenchmarkExtensionIEP(b *testing.B) { runExperiment(b, "ext5") }

// BenchmarkExtensionGroupBy runs ext6 (filtered GROUP BY estimation).
func BenchmarkExtensionGroupBy(b *testing.B) { runExperiment(b, "ext6") }

// BenchmarkExtensionWeightedSel runs ext7 (frequency-weighted attrSel).
func BenchmarkExtensionWeightedSel(b *testing.B) { runExperiment(b, "ext7") }

// BenchmarkExtensionPruning runs ext8 (Section 2.1.2 sub-schema pruning).
func BenchmarkExtensionPruning(b *testing.B) { runExperiment(b, "ext8") }

// Featurization microbenchmarks — Table 7's µs-per-query numbers measured
// with testing.B directly. Each benchmark featurizes the appropriate test
// workload round-robin.

func benchmarkFeaturize(b *testing.B, name string) {
	b.Helper()
	env := experimentEnv()
	forest, err := env.Forest()
	if err != nil {
		b.Fatal(err)
	}
	var set workload.Set
	if name == "complex" {
		_, set, err = env.MixedWorkload()
	} else {
		_, set, err = env.ConjWorkload()
	}
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{MaxEntriesPerAttr: 64, AttrSel: true}
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)
	f, err := qft.New(name, meta, opts)
	if err != nil {
		b.Fatal(err)
	}
	exprs := make([]sqlparse.Expr, len(set))
	for i, l := range set {
		exprs[i] = l.Query.Where
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Featurize(exprs[i%len(exprs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturizeSimple measures Singular Predicate Encoding.
func BenchmarkFeaturizeSimple(b *testing.B) { benchmarkFeaturize(b, "simple") }

// BenchmarkFeaturizeRange measures Range Predicate Encoding.
func BenchmarkFeaturizeRange(b *testing.B) { benchmarkFeaturize(b, "range") }

// BenchmarkFeaturizeConjunctive measures Universal Conjunction Encoding.
func BenchmarkFeaturizeConjunctive(b *testing.B) { benchmarkFeaturize(b, "conjunctive") }

// BenchmarkFeaturizeComplex measures Limited Disjunction Encoding on the
// mixed workload.
func BenchmarkFeaturizeComplex(b *testing.B) { benchmarkFeaturize(b, "complex") }
