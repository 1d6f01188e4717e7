package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	bootTimeout = 60 * time.Second
	stopTimeout = 15 * time.Second
	// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
	// is 100 on every Linux ABI Go supports; sysconf needs cgo.
	clockTick = 100
)

// daemonConfig is the sizing of the daemon under test. Everything else runs
// at cardestd's defaults: cache 4096, -max-batch 16, -batch-delay 2ms,
// -timeout 100ms, -fallback.
type daemonConfig struct {
	Rows  int
	Train int
}

var (
	fullConfig  = daemonConfig{Rows: 20_000, Train: 2_000}
	quickConfig = daemonConfig{Rows: 2_000, Train: 200}
)

// buildDaemon compiles cmd/cardestd into outDir. go build excluded from
// every timing: it runs once, before the first boot.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "cardestd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "qfe/cmd/cardestd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build qfe/cmd/cardestd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one live cardestd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	argv    []string
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan error

	setup   time.Duration // exec → first 200 from /healthz
	bootCPU float64       // utime+stime seconds at that moment
}

// freePort asks the kernel for an unused loopback port. The daemon prints
// ":0" verbatim, so it cannot pick its own.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots cardestd (config A; config B when journalDir is set) and
// waits for /healthz. The child dies with ctx: cancelling it — on a harness
// error or signal — kills the process.
func startDaemon(ctx context.Context, bin, outDir, tag string, cfg daemonConfig, journalDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := []string{bin,
		"-addr", addr, "-qft", "complex", "-model", "GB",
		"-rows", strconv.Itoa(cfg.Rows), "-train", strconv.Itoa(cfg.Train),
		"-entries", "32", "-seed", strconv.Itoa(daemonSeed),
		"-save", filepath.Join(outDir, "boot.json"),
	}
	if journalDir != "" {
		argv = append(argv, "-journal", journalDir)
	}
	logPath := filepath.Join(outDir, tag+"-daemon.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, argv: argv, base: "http://" + addr, logPath: logPath, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("cardestd exited during boot: %v (see %s)", err, logPath)
		case <-deadline.C:
			d.kill()
			return nil, fmt.Errorf("cardestd not healthy after %v (see %s)", bootTimeout, logPath)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-tick.C:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			d.setup = time.Since(start)
			d.bootCPU, _ = procCPUSeconds(cmd.Process.Pid)
			return d, nil
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the child immediately and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
}

// stop sends SIGTERM, waits for the exit and requires a clean drain.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal cardestd: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("cardestd exit: %w (see %s)", err, d.logPath)
		}
	case <-time.After(stopTimeout):
		d.kill()
		return fmt.Errorf("cardestd did not exit within %v of SIGTERM", stopTimeout)
	}
	log, err := os.ReadFile(d.logPath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(log), "drained cleanly") {
		return fmt.Errorf("cardestd exited without %q (see %s)", "drained cleanly", d.logPath)
	}
	return nil
}

// getJSON fetches path over client and decodes the body into v.
func (d *daemon) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is the subset of the daemon's /metrics the benchmark reads.
type scrape struct {
	Requests       float64 `json:"requests_total"`
	Queries        float64 `json:"queries_total"`
	Batches        float64 `json:"batches_total"`
	BatchedQueries float64 `json:"batched_queries_total"`
	Shed           float64 `json:"shed_total"`
	Degraded       float64 `json:"degraded_total"`
	CacheHits      float64 `json:"cache_hits"`
	CacheMisses    float64 `json:"cache_misses"`
	CacheEvictions float64 `json:"cache_evictions"`
	CacheCollapsed float64 `json:"cache_collapsed"`
	Resp4xx        float64 `json:"responses_4xx"`
	Resp5xx        float64 `json:"responses_5xx"`
	Latency        struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"latency_micros"`
	JournalAppended  float64 `json:"journal_appended"`
	JournalShed      float64 `json:"journal_shed"`
	JournalPersisted float64 `json:"journal_persisted"`
	JournalFlushes   float64 `json:"journal_flushes"`
}

func (d *daemon) scrape(client *http.Client) (scrape, error) {
	var s scrape
	err := d.getJSON(client, "/metrics", &s)
	return s, err
}

// journalBytesPerRecord reads GET /v1/journal and averages segment bytes over
// segment records (sealed and active).
func (d *daemon) journalBytesPerRecord(client *http.Client) (float64, error) {
	var page struct {
		Segments []struct {
			Bytes   float64 `json:"bytes"`
			Records float64 `json:"records"`
		} `json:"segments"`
	}
	if err := d.getJSON(client, "/v1/journal", &page); err != nil {
		return 0, err
	}
	var bytes, records float64
	for _, s := range page.Segments {
		bytes += s.Bytes
		records += s.Records
	}
	if records == 0 {
		return 0, errors.New("journal holds no records")
	}
	return bytes / records, nil
}

// ---- /proc ----

// parseProcStat returns utime+stime in clock ticks from the content of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(content string) (uint64, error) {
	i := strings.LastIndexByte(content, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no ')' after the command name")
	}
	// After ") " comes field 3 (state); utime and stime are fields 14 and 15.
	f := strings.Fields(content[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseProcStatus returns VmRSS and VmHWM in kB from the content of
// /proc/<pid>/status.
func parseProcStatus(content string) (rssKB, hwmKB float64, err error) {
	found := 0
	for _, line := range strings.Split(content, "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok || (key != "VmRSS" && key != "VmHWM") {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, 0, fmt.Errorf("proc status: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc status: %s: %w", key, err)
		}
		if key == "VmRSS" {
			rssKB = v
		} else {
			hwmKB = v
		}
		found++
	}
	if found != 2 {
		return 0, 0, errors.New("proc status: VmRSS or VmHWM missing")
	}
	return rssKB, hwmKB, nil
}

func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(string(raw))
	return float64(ticks) / clockTick, err
}

func procMemMiB(pid int) (rss, hwm float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	rssKB, hwmKB, err := parseProcStatus(string(raw))
	return rssKB / 1024, hwmKB / 1024, err
}
