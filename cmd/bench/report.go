package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// report is what a full invocation writes: the environment it ran in and one
// result per workload. -compare reads two of them.
type report struct {
	Env       envInfo      `json:"env"`
	Workloads []*runResult `json:"workloads"`
}

// envInfo records what a number depends on besides the code.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	DaemonSeed int64   `json:"daemon_seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Quick      bool    `json:"quick"`
}

func writeReport(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printResult renders one workload's metrics by name and unit.
func printResult(w io.Writer, spec *benchSpec, res *runResult) {
	fmt.Fprintf(w, "\n== %s ==\n", res.Workload)
	fmt.Fprintf(w, "daemon: %s\n", strings.Join(res.DaemonArgv, " "))
	fmt.Fprintf(w, "end-to-end (tracing off; %d requests sampled, %d queries attempted, %d failed):\n", res.Samples, res.Attempted, res.Failed)
	if res.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FirstError)
	}
	for _, m := range spec.EndToEnd {
		note := ""
		switch s, ok := res.Spread[m.Name]; {
		case m.Name == "setup_s":
			note = fmt.Sprintf("median of %d boots %.3f", len(res.SetupS), res.SetupS)
		case m.Name == "cpu_us_per_query":
			note = fmt.Sprintf("whole window, quartile spread over %d segments %.1f%%", windowSegments, 100*s)
		case ok:
			note = fmt.Sprintf("median of %d segments, quartile spread %.1f%%", windowSegments, 100*s)
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-10s %s\n", m.Name, res.EndToEnd[m.Name], m.Unit, note)
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "per-layer (traced in-process replay, daemon /metrics deltas, /proc):")
		for _, m := range spec.PerLayer {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
		}
	}
	if res.Correct {
		fmt.Fprintln(w, "gate: ok")
		return
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "gate: FAILED: %s\n", f)
	}
}

// verdicts of one compared metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's value after a change (b) with the one before
// (a). worse is how much worse b is, as a share of a. A breach of the bound
// is a regression unless either run's own spread exceeded the bound, in
// which case the runs cannot tell: unresolved, not unchanged.
func judge(m boundedSpec, a, b, spreadA, spreadB float64) (worse float64, verdict string) {
	if a != 0 {
		worse = (b - a) / a
	}
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= m.Bound:
		return worse, verdictOK
	case spreadA > m.Bound || spreadB > m.Bound:
		return worse, verdictUnresolved
	default:
		return worse, verdictRegressed
	}
}

// compareReports prints, per workload and end-to-end metric, both values,
// how much worse the second is, the bound, and the verdict. It returns how
// many metrics breached their bound.
func compareReports(w io.Writer, spec *benchSpec, a, b report) (breaches int, err error) {
	byName := func(r report) map[string]*runResult {
		m := map[string]*runResult{}
		for _, res := range r.Workloads {
			m[res.Workload] = res
		}
		return m
	}
	ra, rb := byName(a), byName(b)
	names := make([]string, 0, len(ra))
	for name := range ra {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return spec.byName[names[i]] < spec.byName[names[j]] })
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, name := range names {
		wa, wb := ra[name], rb[name]
		if wb == nil {
			return breaches, fmt.Errorf("workload %s is in the first report only", name)
		}
		for _, m := range spec.EndToEnd {
			va, oka := wa.EndToEnd[m.Name]
			vb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				return breaches, fmt.Errorf("workload %s: metric %s is missing from a report", name, m.Name)
			}
			worse, verdict := judge(m, va, vb, wa.Spread[m.Name], wb.Spread[m.Name])
			if verdict != verdictOK {
				breaches++
			}
			fmt.Fprintf(w, "%-13s %-18s %14.4f %14.4f %+8.1f%% %6.1f%%  %s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		if !wa.Correct || !wb.Correct {
			breaches++
			fmt.Fprintf(w, "%-13s a correctness gate failed (a ok: %v, b ok: %v)\n", name, wa.Correct, wb.Correct)
		}
	}
	return breaches, nil
}
