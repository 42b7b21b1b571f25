// Package leakcheck asserts at test teardown that no repro-owned
// goroutines outlive the code under test. It is a hand-rolled, stdlib-only
// take on goleak: parse the full runtime.Stack dump into per-goroutine
// stanzas, keep the ones with a frame in this module, drop the known
// process-lifetime pools, and fail the test with the offending stacks if
// any remain after a grace period (shutdown is asynchronous — Close
// returns before the last deferred goroutine unwinds).
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredFrames are substrings of stack frames that mark a goroutine as
// process-lifetime by design, not a leak:
//   - the tensor package's global worker pool is created once and serves
//     every engine for the life of the process (matched on the worker
//     closure's name, which keeps its "ensurePool.func1" tail whether or not
//     ensurePool was inlined into its caller — it is under -race);
//   - test-runner goroutines (tRunner and friends) carry the test
//     function's own repro frames while the test is still finishing.
var ignoredFrames = []string{
	"ensurePool.func1",
	"testing.tRunner",
	"testing.(*T).Run",
}

// Check registers a cleanup that fails t if repro-owned goroutines are
// still running when the test (and its other cleanups, e.g. server.Close)
// finish. Call it first in the test body so its cleanup runs last.
func Check(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = ownedGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d repro-owned goroutine(s) still running:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// ownedGoroutines returns the stack stanzas of goroutines with at least
// one frame in this module, excluding the ignored set.
func ownedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
stanza:
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "repro/") {
			continue
		}
		for _, ig := range ignoredFrames {
			if strings.Contains(g, ig) {
				continue stanza
			}
		}
		leaked = append(leaked, g)
	}
	return leaked
}
