package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"qfe/internal/testutil"
)

// TestNextProcs: the governor's step jumps to the ceiling at once when the
// Ps serving are short, busy or with work waiting for them; drops one P when
// one fewer would fit the load on both readings; holds in between; and never
// leaves [1, ceiling].
func TestNextProcs(t *testing.T) {
	for _, c := range []struct {
		procs, ceiling int
		used           load
		want           int
	}{
		{2, 2, load{0.05, 0.01}, 1}, // a light load at 2 Ps goes to 1
		{2, 2, load{0.90, 0.20}, 1}, // 1 P would be filled to exactly fits
		{2, 2, load{0.92, 0.10}, 2}, // 1 P would be filled past fits
		{2, 2, load{0.50, 0.25}, 2}, // too much waits for 1 P
		{2, 2, load{1.95, 1.00}, 2}, // short at the ceiling: no P above it
		{1, 2, load{0.98, 0.10}, 2}, // a busy 1 goes to 2
		{1, 2, load{0.78, 0.49}, 2}, // a starved 1 goes to 2: work waits while it reads under busy
		{1, 2, load{0.90, 0.20}, 1}, // a load held at fits stays at 1
		{1, 2, load{0.93, 0.30}, 1}, // between fits and full: hold
		{1, 2, load{0.50, 0.10}, 1}, // never below 1
		{1, 2, load{0.00, 0.00}, 1}, // idle at 1
		{1, 8, load{1.00, 0.00}, 8}, // short: straight to the ceiling
		{3, 8, load{0.10, 0.00}, 2}, // down one P a window
		{4, 4, load{2.00, 0.30}, 3}, // 3 Ps would be filled to 67 %
		{4, 4, load{2.80, 0.30}, 4}, // 3 Ps would be filled to 93 %
		{3, 4, load{2.85, 0.30}, 4}, // 3 Ps busy to 95 %
		{1, 1, load{0.99, 5.00}, 1}, // a process started on 1 P never steps up
		{1, 1, load{0.00, 0.00}, 1}, // nor down
	} {
		if got := nextProcs(c.procs, c.ceiling, c.used); got != c.want {
			t.Errorf("nextProcs(%d, %d, %+v) = %d, want %d", c.procs, c.ceiling, c.used, got, c.want)
		}
	}
}

// TestNextProcsHasADeadBand: no steady load keeps the governor stepping.
// From any P count, a load that does not change settles on one count and
// never returns to a count it left.
func TestNextProcsHasADeadBand(t *testing.T) {
	const ceiling = 8
	for cpu := 0.0; cpu <= ceiling; cpu += 0.01 {
		for waiting := 0.0; waiting <= 4; waiting += 0.01 {
			used := load{cpu, waiting}
			for start := 1; start <= ceiling; start++ {
				var left [ceiling + 1]bool
				for p, next := start, nextProcs(start, ceiling, used); next != p; p, next = next, nextProcs(next, ceiling, used) {
					if left[p] = true; left[next] {
						t.Fatalf("a steady load %+v from %d Ps steps back to %d", used, start, next)
					}
				}
			}
		}
	}
}

// serveGoverned serves on a random port from 2 Ps, whatever the box has,
// so the governor starts at 2, and returns what serveUntil printed once ctx
// is done and it has returned, having checked that it left the 2 Ps it
// started with. stepped, if not nil, runs once the governor has stepped
// down to 1 P, with the daemon still serving.
func serveGoverned(t *testing.T, ctx context.Context, stepped func()) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := tinyOptions(t)
	o.addr = "127.0.0.1:0"
	out := make(lineWriter, 16) // read as it goes; the lines after the last read (a step, the drain's two) fit
	// Built here: a t.Fatal in constServer must end the test, not a goroutine
	// the loop below waits on for ever.
	srv := constServer(t)
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, srv, o, out) }()
	var printed strings.Builder
	for {
		select {
		case line := <-out:
			printed.WriteString(line)
			if stepped != nil && strings.HasPrefix(line, "governor: 2 -> 1 Ps") {
				if got := runtime.GOMAXPROCS(0); got != 1 {
					t.Errorf("the governor logged a step to 1 P, GOMAXPROCS is %d", got)
				}
				stepped()
				stepped = nil
			}
		case err := <-done:
			if err != nil {
				t.Fatalf("serveUntil: %v", err)
			}
			close(out)
			for line := range out {
				printed.WriteString(line)
			}
			if got := runtime.GOMAXPROCS(0); got != 2 {
				t.Errorf("GOMAXPROCS %d after serveUntil, want the 2 it started with", got)
			}
			return printed.String()
		}
	}
}

// TestServeUntilJoinsTheGovernor: serving starts the governor, and shutting
// down under a cancelled context joins it (no goroutine of the daemon
// outlives serveUntil) and leaves the Ps serving started with
// (serveGoverned checks).
func TestServeUntilJoinsTheGovernor(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if printed := serveGoverned(t, ctx, nil); !strings.Contains(printed, "drained cleanly") {
		t.Errorf("serveUntil printed %q, want a clean drain", printed)
	}
}

// TestGovernorStepsDownAndGivesBack: an idle daemon uses next to no CPU and
// nothing waits for a P, so the governor's first window steps it down to 1
// P; shutting down joins the governor and gives every P back (serveGoverned
// checks).
func TestGovernorStepsDownAndGivesBack(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if printed := serveGoverned(t, ctx, cancel); !strings.Contains(printed, "governor: 2 -> 1 Ps") {
		t.Fatalf("an idle daemon never stepped down to 1 P; it printed %q", printed)
	}
}

// TestBootLabelsOnEveryP: the governor throttles serving only. A boot after
// a governed serve that stepped down still labels on every P the process
// has, and says so.
func TestBootLabelsOnEveryP(t *testing.T) {
	start := runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serveGoverned(t, ctx, cancel)
	var out strings.Builder
	if _, err := boot(tinyOptions(t), &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" q/s on %d workers\n", start); !strings.Contains(out.String(), want) {
		t.Errorf("boot printed %q, want its labeling on %d workers", out.String(), start)
	}
}
