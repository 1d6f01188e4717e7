// Command benchrunner regenerates the paper's evaluation artifacts: every
// table and figure of Section 5 plus the design ablations, printed as text
// reports.
//
// Usage:
//
//	benchrunner [-scale smoke|default|full] [-exp id[,id...]] [-list]
//
// Experiment ids follow DESIGN.md's per-experiment index (fig1..fig5,
// tab1..tab7, abl2..abl4). Without -exp, every experiment runs in paper
// order. The QFE_SCALE environment variable is an alternative to -scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"qfe/internal/bench"
	"qfe/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: reports go to out, complaints to errOut, and the
// result is the exit status (2 for a bad invocation, 1 when an experiment
// failed).
func run(args []string, out, errOut io.Writer) (exit int) {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(errOut)
	scaleFlag := fs.String("scale", "", `scale profile: "smoke", "default", or "full" (default: $QFE_SCALE or "default")`)
	expFlag := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	listFlag := fs.Bool("list", false, "list experiments and exit")
	workersFlag := fs.Int("workers", 0, "training/labeling goroutines for the learned models (0 = one per logical CPU); results are bit-identical for every value")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set already printed the error and usage
	}

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "%-6s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if err := cli.ValidateWorkers(*workersFlag); err != nil {
		fmt.Fprintln(errOut, "benchrunner:", err)
		return 2
	}

	if *scaleFlag != "" {
		os.Setenv("QFE_SCALE", *scaleFlag)
	}
	scale := bench.CurrentScale()
	fmt.Fprintf(out, "# scale profile: %s\n\n", scale.Name)
	env := bench.NewEnv(scale)
	env.Workers = *workersFlag

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			exp, ok := bench.ExperimentByID(id)
			if !ok {
				fmt.Fprintf(errOut, "benchrunner: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	failed := 0
	for _, exp := range selected {
		start := time.Now()
		rep, err := exp.Run(env)
		if err != nil {
			fmt.Fprintf(errOut, "benchrunner: %s failed: %v\n", exp.ID, err)
			failed++
			continue
		}
		fmt.Fprintln(out, rep)
		fmt.Fprintf(out, "(%s took %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
