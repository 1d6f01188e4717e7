package main

import (
	"bytes"
	"strings"
	"testing"

	"qfe/internal/bench"
)

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if exit := run([]string{"-list"}, &out, &errOut); exit != 0 || errOut.Len() != 0 {
		t.Fatalf("-list: exit %d, stderr %q", exit, errOut.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	exps := bench.Experiments()
	if len(lines) != len(exps) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(exps), out.String())
	}
	for i, e := range exps {
		if !strings.HasPrefix(lines[i], e.ID+" ") || !strings.HasSuffix(lines[i], " "+e.Title) {
			t.Errorf("line %d = %q, want id %s and title %q", i, lines[i], e.ID, e.Title)
		}
	}
}

func TestBadInvocationsExit2(t *testing.T) {
	for args, want := range map[string]string{
		"-scale smoke -exp tab5,fig99":       `benchrunner: unknown experiment "fig99" (use -list)`,
		"-scale smoke -workers -1 -exp tab5": "benchrunner: -workers must be >= 0",
	} {
		t.Setenv("QFE_SCALE", "") // -scale sets it; restored when the test ends
		var out, errOut bytes.Buffer
		if exit := run(strings.Fields(args), &out, &errOut); exit != 2 || !strings.Contains(errOut.String(), want) {
			t.Errorf("%s: exit %d, stderr %q; want 2 and %q", args, exit, errOut.String(), want)
		}
		if strings.Contains(out.String(), "took") {
			t.Errorf("%s: an experiment ran:\n%s", args, out.String())
		}
	}
}

func TestRunsOneExperimentAtSmokeScale(t *testing.T) {
	t.Setenv("QFE_SCALE", "")
	var out, errOut bytes.Buffer
	if exit := run([]string{"-scale", "smoke", "-exp", " tab5 "}, &out, &errOut); exit != 0 || errOut.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", exit, errOut.String())
	}
	exp, _ := bench.ExperimentByID("tab5")
	for _, want := range []string{"# scale profile: smoke\n", exp.Title, "(tab5 took "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n < 6 {
		t.Errorf("report is %d lines long, want a table:\n%s", n, out.String())
	}
}
