package bench

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/metrics"
)

// Report is one regenerated paper artifact: a titled block of text lines
// (table rows or figure series) ready to print or to paste into
// EXPERIMENTS.md.
type Report struct {
	ID    string // "fig1", "tab5", ...
	Title string
	Lines []string
}

// Printf appends a formatted line.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report with a header rule.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// summaryRow renders the paper's "mean median 99% max" table row.
func summaryRow(label string, s metrics.Summary) string {
	return fmt.Sprintf("%-28s mean=%8.2f  median=%7.2f  p99=%9.2f  max=%10.2f", label, s.Mean, s.Median, s.P99, s.Max)
}

// boxplotRow renders the five boxplot statistics of the figure experiments.
func boxplotRow(label string, b metrics.BoxplotStats) string {
	return fmt.Sprintf("%-28s p01=%7.2f  p25=%7.2f  med=%7.2f  p75=%8.2f  p99=%10.2f",
		label, b.P01, b.P25, b.Median, b.P75, b.P99)
}

// sortedKeys returns the integer keys of a map in ascending order (used for
// by-attribute and by-predicate groupings).
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Experiment is a runnable regeneration of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Env) (*Report, error)
}

// Experiments lists every artifact regeneration in paper order. The IDs are
// the ones DESIGN.md's per-experiment index uses.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Error distribution by QFT × ML model (forest)", Figure1},
		{"fig2", "Estimation errors per QFT by number of attributes (GB)", Figure2},
		{"fig3", "Estimation errors per QFT by number of predicates (GB)", Figure3},
		{"fig4", "Best QFT × model vs established estimators (forest)", Figure4},
		{"fig5", "Query drift: train <= 2 attributes, test >= 3", Figure5},
		{"tab1", "JOB-light join queries, local models", Table1},
		{"tab2", "JOB-light: local vs global models", Table2},
		{"tab3", "Effect of per-attribute selectivity estimates", Table3},
		{"tab4", "End-to-end run times (optimizer + executor)", Table4},
		{"tab5", "Accuracy for different feature vector lengths", Table5},
		{"tab6", "Training convergence (avg q-error vs #training queries)", Table6},
		{"tab7", "QFT time & estimator memory consumption", Table7},
		{"abl2", "Ablation: ½ entries vs binarized partitions", AblationHalfEntries},
		{"abl3", "Ablation: LDE entry-wise max vs sum-clamp merge", AblationLDEMerge},
		{"abl4", "Ablation: log2 vs raw label transform", AblationLabelTransform},
		{"ext1", "Extension: simpler models (LR) vs NN vs GB (Section 2.2)", ExtensionModelZoo},
		{"ext2", "Extension: attribute-specific n vs uniform n (Section 3.2)", ExtensionAdaptiveEntries},
		{"ext3", "Extension: histogram partitioning schemes for UCE (Section 3.2)", ExtensionPartitioning},
		{"ext4", "Extension: data drift, reconstruction costs and recovery (Section 5.5.2)", ExtensionDataDrift},
		{"ext5", "Extension: inclusion-exclusion vs LDE (Section 6)", ExtensionIEP},
		{"ext6", "Extension: filtered GROUP BY estimation (Section 6)", ExtensionGroupBy},
		{"ext7", "Extension: uniform vs frequency-weighted attrSel", ExtensionWeightedSel},
		{"ext8", "Extension: sub-schema pruning via System-R feedback (Section 2.1.2)", ExtensionPruning},
		{"ext9", "Extension: the serving degradation chain, stage by stage (Section 5.2 baselines)", ExtensionServingChain},
		{"ext10", "Extension: query drift healed from feedback, refit vs residual trees (Section 5.5.1)", ExtensionFeedbackHeal},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
