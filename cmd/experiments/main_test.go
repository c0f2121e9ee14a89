package main

import (
	"strings"
	"testing"
)

const committed = `T1: Simulation Parameters
  Parameter      Value
  CPU Frequency  166 MHz
  [T1 ready after 0.0s]

F2: Performance Results for Jacobi
  1  1.00  1.00
  2  1.82  1.61
  [F2 ready after 37.8s]

`

// TestRenderingDiffIgnoresOnlyTimingLines checks -check's comparison: a
// rendering whose only changes are the ready-after timings matches, and
// one changed figure is reported with its line.
func TestRenderingDiffIgnoresOnlyTimingLines(t *testing.T) {
	retimed := strings.NewReplacer("0.0s", "0.1s", "37.8s", "12.5s").Replace(committed)
	if diffs := renderingDiff(retimed, committed); diffs != nil {
		t.Fatalf("retimed rendering reported as different: %v", diffs)
	}

	changed := strings.Replace(committed, "1.82", "1.83", 1)
	diffs := renderingDiff(changed, committed)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "1.83") || !strings.Contains(diffs[0], "1.82") {
		t.Fatalf("changed figure reported as %v, want one difference naming 1.83 and 1.82", diffs)
	}

	truncated := committed[:strings.Index(committed, "F2:")]
	if diffs := renderingDiff(truncated, committed); len(diffs) == 0 {
		t.Fatal("rendering missing an artifact reported as matching")
	}
}
