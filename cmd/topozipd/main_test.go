package main

import (
	"strings"
	"testing"
)

// TestMaxMemRejected: a -max-mem that is not finite, overflows int64 or
// comes to less than one byte stops the daemon before it listens, rather
// than running with no memory ceiling. The listen address is invalid, so
// a budget that slipped through would fail on the listener instead.
func TestMaxMemRejected(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "1e30GiB", "0.1B"} {
		err := run([]string{"-listen", "invalid:address:", "-max-mem", bad})
		if err == nil || !strings.Contains(err.Error(), "-max-mem") {
			t.Errorf("-max-mem %s: err = %v, want a -max-mem error", bad, err)
		}
	}
	if err := run([]string{"-listen", "invalid:address:", "-max-body", "NaN"}); err == nil || !strings.Contains(err.Error(), "-max-body") {
		t.Errorf("-max-body NaN: err = %v, want a -max-body error", err)
	}
}
