// Package testutil holds small helpers shared by this repository's tests.
package testutil

import (
	"runtime"
	"strings"
	"sync"
	"time"
)

// VerifyNoLeaks registers a cleanup that fails the test if goroutines
// running this module's code outlive it. Call it FIRST in a test (before
// starting servers, journals, or supervisors): testing cleanups run LIFO,
// so the leak check executes after every later-registered cleanup has shut
// its component down — exactly the moment all qfe goroutines should be
// gone.
//
// The check is a filtered stack-dump diff, not a bare count: only
// goroutines with a qfe/ frame are considered, so runtime, testing, and
// net/http internals (which keep pool goroutines alive across tests) never
// false-positive. Shutdown is asynchronous — a Close may return before its
// goroutine's final return instruction retires — so the check polls briefly
// before declaring a leak.
func VerifyNoLeaks(t interface {
	Name() string
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}) {
	t.Helper()
	// One check per test: helpers may each call VerifyNoLeaks, but only the
	// first registration counts — it is the outermost cleanup, so it runs
	// after every helper's own shutdown cleanup.
	if _, dup := activeChecks.LoadOrStore(t.Name(), true); dup {
		return
	}
	t.Cleanup(func() {
		defer activeChecks.Delete(t.Name())
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = moduleGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leaked %d goroutine(s) running module code:\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	})
}

// modulePrefix identifies this module's frames in stack traces.
const modulePrefix = "qfe/"

// activeChecks tracks tests that already registered a leak check.
var activeChecks sync.Map

// moduleGoroutines returns the stacks of goroutines (other than the caller's)
// that have a frame inside this module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for i, st := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the first stack is this goroutine, running the check
		}
		if !strings.Contains(st, modulePrefix) {
			continue
		}
		out = append(out, st)
	}
	return out
}
