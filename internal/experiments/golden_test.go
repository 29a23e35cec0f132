package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// TestGoldenDrivers locks the printed evaluation to the recorded golden
// file: it prints the whole index, as "cmd/experiments -run all -train
// 6 -weeks 1" does, so every number the experiments emit — trace
// generation, the simulated control plane, the replay kernel and every
// strategy — is in the comparison. It prints it twice, sequentially and
// on four workers, and both must match: every grid returns its results
// in grid order at any Jobs. The file was captured from the
// pre-event-kernel per-minute implementation, so this test is also the
// before/after witness that the discrete-event refactor reproduces the
// original evaluation exactly. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenDrivers -update
func TestGoldenDrivers(t *testing.T) {
	sel, err := Select("all", false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_quick.txt")
	for _, jobs := range []int{0, 4} {
		env := QuickEnv()
		env.Jobs = jobs
		var b strings.Builder
		if err := env.Print(&b, sel, ""); err != nil {
			t.Fatal(err)
		}
		got := b.String()
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(got))
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("driver output at Jobs=%d diverged from golden file %s.\nDiff the output of `go test -run TestGoldenDrivers -update` against git to inspect.\ngot %d bytes, want %d bytes\nfirst divergence: %s",
				jobs, path, len(got), len(want), firstDiff(got, string(want)))
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
