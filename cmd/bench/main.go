// Command bench is the repository's benchmark: it builds cmd/cardestd, boots
// it as a subprocess on a loopback port, drives it over real HTTP with a
// closed loop of two clients on two keep-alive connections, verifies every
// answer against the daemon's own model snapshot, and then replays the same
// requests in-process through each layer's public functions under tracing.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory explains them.
//
// Usage (from the repository root):
//
//	go run ./cmd/bench                       # all four workloads, end-to-end and per-layer
//	go run ./cmd/bench -compare a.json b.json
//	go run ./cmd/bench --workload single-cold --seed 3 --seconds 10 --trace 0
//
// The last form is what the benchmark driver runs: one workload, and as the
// last line of standard output one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupBoots is how many times an end-to-end run boots the daemon; setup_s
// is the median.
const setupBoots = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	compare  bool
	outDir   string
	specPath string
	report   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all four, with a report file)")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed: the same seed gives byte-identical requests")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of the spec; 1 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced replay")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizing: 2000 rows, 200 training queries, 1 s window, one boot")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files given as arguments; non-zero exit on any breach of a bound")
	flag.StringVar(&o.outDir, "out", "cmd/bench/out", "directory for the daemon binary, logs, snapshot, traces and the report")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark's specification")
	flag.StringVar(&o.report, "report", "", "report file of a full run (default <out>/report.json)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, o, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run is main without the process exit: 0 means every gate passed.
func run(ctx context.Context, o options, args []string) (int, error) {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return 1, err
	}
	if o.compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare wants two report files, got %d", len(args))
		}
		a, err := readReport(args[0])
		if err != nil {
			return 1, err
		}
		b, err := readReport(args[1])
		if err != nil {
			return 1, err
		}
		breaches, err := compareReports(os.Stdout, spec, a, b)
		if err != nil {
			return 1, err
		}
		if breaches > 0 {
			return 1, fmt.Errorf("%d metric(s) outside their bound", breaches)
		}
		return 0, nil
	}

	todo := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workload{w}
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
		if o.quick {
			o.seconds = 1
		}
	}
	opt := runOptions{
		cfg:    fullConfig,
		quick:  o.quick,
		window: time.Duration(o.seconds * float64(time.Second)),
		warmup: time.Second,
		boots:  setupBoots,
		layers: o.workload == "" || o.trace == 1,
		outDir: o.outDir,
	}
	if o.quick {
		opt.cfg, opt.warmup, opt.boots = quickConfig, 300*time.Millisecond, 1
	}
	if o.workload != "" && o.trace == 1 {
		opt.boots = 1 // a traced run does not report setup_s
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return 1, err
	}
	if opt.binPath, err = buildDaemon(ctx, o.outDir); err != nil {
		return 1, err
	}
	in, err := buildInputs(opt.cfg.Rows, o.seed)
	if err != nil {
		return 1, err
	}

	env := envInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: gitRev(),
		Seed: o.seed, DaemonSeed: daemonSeed, Seconds: o.seconds, Clients: numClients, Quick: o.quick,
	}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s rev=%s seed=%d daemon-seed=%d window=%gs in %d segments, %d closed-loop clients\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.GitRev, env.Seed, env.DaemonSeed, env.Seconds, windowSegments, env.Clients)

	var offline map[string]float64
	if opt.layers {
		if offline, err = offlineMetrics(in, opt.cfg); err != nil {
			return 1, err
		}
	}
	rep := report{Env: env}
	failed := 0
	for _, w := range todo {
		res, err := runWorkload(ctx, in, w, opt)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.Name, err)
		}
		for k, v := range offline {
			res.PerLayer[k] = v
		}
		printResult(os.Stdout, spec, res)
		if !res.Correct {
			failed++
		}
		rep.Workloads = append(rep.Workloads, res)
	}

	if o.workload == "" {
		path := o.report
		if path == "" {
			path = filepath.Join(o.outDir, "report.json")
		}
		if err := writeReport(path, rep); err != nil {
			return 1, err
		}
		fmt.Printf("\nbench: report written to %s\n", path)
	} else {
		line, err := driverLine(spec, rep.Workloads[0], o.trace == 1)
		if err != nil {
			return 1, err
		}
		fmt.Println(line)
	}
	if failed > 0 {
		return 1, fmt.Errorf("the correctness gate failed on %d workload(s)", failed)
	}
	return 0, nil
}

// driverLine is the single JSON object a one-workload run ends with.
func driverLine(spec *benchSpec, res *runResult, traced bool) (string, error) {
	var metrics map[string]metricValue
	var err error
	if traced {
		metrics, err = spec.perLayer(res.PerLayer)
	} else {
		metrics, err = spec.endToEnd(res.EndToEnd)
	}
	if err != nil {
		return "", err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// gitRev is the checkout's commit, or "unknown" outside a git repository.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
