package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs are the artifacts pinned across commits: the serving and
// collective sweeps (FS1, FS2, FC1) and the DSM tables and figures
// (T2-T4 overhead breakdowns, F10 Cholesky speedup, FD1 ownership
// organizations). The parity gates compare two code paths of one
// build, so only a committed rendering catches a change that moves
// both at once.
var goldenIDs = []string{"FS1", "FS2", "FC1", "T2", "T3", "T4", "F10", "FD1"}

// TestServingGolden renders the quick-mode rendering of every goldenIDs
// artifact sequentially and requires byte equality with
// testdata/<ID>.golden.
func TestServingGolden(t *testing.T) {
	for _, id := range goldenIDs {
		spec, ok := Find(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSequential(spec, Options{Quick: true}); got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden\n--- want ---\n%s\n--- got ---\n%s",
				id, id, want, got)
		}
	}
}
