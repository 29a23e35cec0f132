package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmptyTraceRejected: -weeks below 1 is a usage error naming the
// flag, in either format, and no output file is created.
func TestEmptyTraceRejected(t *testing.T) {
	for _, format := range []string{"csv", "colbin"} {
		out := filepath.Join(t.TempDir(), "trace."+format)
		err := run("m1.small", "", 0, 2014, "", format, out)
		if err == nil || !strings.HasPrefix(err.Error(), "-weeks 0:") {
			t.Errorf("%s: -weeks 0: %v", format, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: -weeks 0 left a file behind: %v", format, err)
		}
	}
}
