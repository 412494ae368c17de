package fault

import (
	"runtime"
	"time"
)

// TB is the part of testing.TB the goroutine check uses. Taking it
// instead of testing.TB keeps package testing out of the binaries that
// link the injection points.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// GoroutinesSettle polls until at most base goroutines are running and
// reports whether that happened within the given time.
func GoroutinesSettle(base int, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// LeakCheck fails t if goroutines started after the call are still
// running two seconds after t's later cleanups have run. Call it first:
// cleanups run last-in first-out, so this one runs after the test's
// servers, coordinators and files are closed. The count is the whole
// process's, which is sound because no test runs in parallel with
// another (none calls t.Parallel).
func LeakCheck(t TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if !GoroutinesSettle(base, 2*time.Second) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines after the test, %d before it:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	})
}
