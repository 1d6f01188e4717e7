package qfe_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchRow is one row of BENCH_e2e.json: a change (Rev) measured against its
// parent with the unmodified cmd/bench, one workload and end-to-end metric,
// medians over N alternating runs a side.
type benchRow struct {
	PR           int      `json:"pr"`
	Rev          string   `json:"rev"`
	Parent       string   `json:"parent"`
	Workload     string   `json:"workload"`
	Metric       string   `json:"metric"`
	ParentMedian float64  `json:"parent_median"`
	ChangeMedian float64  `json:"change_median"`
	Wins         *int     `json:"wins"`
	N            int      `json:"n"`
	ParentIQR    *float64 `json:"parent_iqr"`
	Seeds        string   `json:"seeds"`
	Verdict      string   `json:"verdict"`
}

// The markers around the table README "Performance" renders from the file.
const (
	tableBegin = "<!-- BENCH_e2e.json: begin -->"
	tableEnd   = "<!-- BENCH_e2e.json: end -->"
)

// renderBenchTable renders rows as README's Markdown table.
func renderBenchTable(rows []benchRow) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString("| PR | workload | metric | parent → change | Δ | wins | parent IQR | verdict |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		wins, iqr := "—", "—"
		if r.Wins != nil {
			wins = strconv.Itoa(*r.Wins)
		}
		if r.ParentIQR != nil {
			iqr = num(*r.ParentIQR)
		}
		fmt.Fprintf(&b, "| %d | `%s` | `%s` | %s → %s | %+.1f %% | %s/%d | %s | %s |\n",
			r.PR, r.Workload, r.Metric, num(r.ParentMedian), num(r.ChangeMedian),
			100*(r.ChangeMedian-r.ParentMedian)/r.ParentMedian, wins, r.N, iqr, r.Verdict)
	}
	return b.String()
}

// TestBenchE2E holds BENCH_e2e.json, the committed end-to-end trajectory, to
// its rules, and README "Performance" to the file: every row is a
// well-formed pair over a workload and an end-to-end metric BENCHMARK.json
// declares, with no more wins than pairs; every PR the section cites has
// rows; and the table between the section's markers is exactly what the file
// renders, so a hand edit on either side fails here.
func TestBenchE2E(t *testing.T) {
	var file struct {
		About []string   `json:"about"`
		Rows  []benchRow `json:"rows"`
	}
	data, err := os.ReadFile("BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCH_e2e.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if data, err = os.ReadFile("BENCHMARK.json"); err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	known := func(name string, list []struct{ Name string }) bool {
		return slices.ContainsFunc(list, func(e struct{ Name string }) bool { return e.Name == name })
	}

	if len(file.Rows) == 0 {
		t.Fatal("BENCH_e2e.json has no rows")
	}
	last := file.Rows[len(file.Rows)-1].PR
	prs := map[int]bool{}
	for i, r := range file.Rows {
		where := fmt.Sprintf("row %d (PR %d, %s %s)", i, r.PR, r.Workload, r.Metric)
		switch {
		case r.PR < 1 || i > 0 && r.PR < file.Rows[i-1].PR:
			t.Errorf("%s: PR numbers must be positive and ascending", where)
		case r.Parent == "" || r.Rev == "" && r.PR != last:
			t.Errorf("%s: a row names its parent and, unless it is the newest PR's, its rev", where)
		case !known(r.Workload, spec.Workloads) || !known(r.Metric, spec.EndToEnd):
			t.Errorf("%s: workload or metric not declared in BENCHMARK.json", where)
		case r.N < 1 || r.Wins != nil && (*r.Wins < 0 || *r.Wins > r.N):
			t.Errorf("%s: n must be positive and wins lie in [0, n = %d]", where, r.N)
		case r.ParentMedian <= 0 || r.ChangeMedian <= 0 || r.ParentIQR != nil && *r.ParentIQR < 0:
			t.Errorf("%s: medians must be positive and the IQR not negative", where)
		case r.Seeds == "":
			t.Errorf("%s: no seeds", where)
		case !slices.Contains([]string{"claimed", "held", "unresolved", "target missed"}, r.Verdict):
			t.Errorf("%s: verdict %q", where, r.Verdict)
		}
		prs[r.PR] = true
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	start := strings.Index(section, "\n## Performance\n")
	if start < 0 {
		t.Fatal(`README.md has no "## Performance" section`)
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	for _, m := range regexp.MustCompile(`\bPR (\d+)\b`).FindAllStringSubmatch(section, -1) {
		if pr, _ := strconv.Atoi(m[1]); !prs[pr] {
			t.Errorf("README Performance cites PR %d, which has no row in BENCH_e2e.json", pr)
		}
	}
	b, e := strings.Index(section, tableBegin), strings.Index(section, tableEnd)
	if b < 0 || e < b {
		t.Fatalf("README Performance lacks the %s … %s markers", tableBegin, tableEnd)
	}
	if got, want := strings.TrimSpace(section[b+len(tableBegin):e]), strings.TrimSpace(renderBenchTable(file.Rows)); got != want {
		t.Errorf("README Performance's table is not what BENCH_e2e.json renders; the file renders:\n%s", want)
	}
}
