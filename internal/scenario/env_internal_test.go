package scenario

import "testing"

// TestCountOnlySinksCouldNotRunDry pins the precondition that made the
// count-only receivers exact: a payload drain of the same sink can
// hold at most a full ring plus one burst of buffers, and each sink's
// pool is at least that large, so its only drop was ever a full ring —
// the only drop a count-only queue has.
func TestCountOnlySinksCouldNotRunDry(t *testing.T) {
	for _, c := range []struct {
		name       string
		ring, pool int
	}{
		{"DrainRx", envRxRing, envRxPool},
		{"DuT sink", dutSinkRxRing, dutSinkRxPool},
	} {
		if c.pool < c.ring+drainBatch {
			t.Errorf("%s: pool %d < ring %d + batch %d", c.name, c.pool, c.ring, drainBatch)
		}
	}
}
