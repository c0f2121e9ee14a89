package stats

import (
	"strings"
	"testing"

	"cni/internal/sim"
)

// TestPercentileExactNearestRank pins the nearest-rank definition on a
// fully known sample set: with samples 1..1000, the q-th percentile is
// exactly sample ceil(q*10) — no bucket rounding, no interpolation.
func TestPercentileExactNearestRank(t *testing.T) {
	var l Latencies
	// Insert in a scrambled order so the lazy sort is exercised.
	for i := 0; i < 1000; i++ {
		l.Add(sim.Time((i*619)%1000 + 1))
	}
	cases := map[float64]sim.Time{
		50:   500,
		90:   900,
		99:   990,
		99.9: 999,
		100:  1000,
	}
	for q, want := range cases {
		if got := l.Percentile(q); got != want {
			t.Errorf("p%v = %d, want %d", q, got, want)
		}
	}
	// Tiny sets: 1 sample is every percentile.
	var one Latencies
	one.Add(42)
	for _, q := range []float64{0.1, 50, 99.9, 100} {
		if got := one.Percentile(q); got != 42 {
			t.Errorf("single-sample p%v = %d, want 42", q, got)
		}
	}
	var empty Latencies
	if got := empty.Percentile(99); got != 0 {
		t.Errorf("empty p99 = %d, want 0", got)
	}
}

// TestPercentileFloatArtifact guards the rank computation against
// float rounding: 99% of 1000 computes as 990.0000000000001 in
// float64, which a naive ceil turns into rank 991.
func TestPercentileFloatArtifact(t *testing.T) {
	var l Latencies
	for i := 1; i <= 1000; i++ {
		l.Add(sim.Time(i))
	}
	if got := l.Percentile(99); got != 990 {
		t.Fatalf("p99 over 1000 samples = %d, want exactly 990", got)
	}
}

// TestHistAddMergeAndComparability covers the log2 bucketing, the
// Min/Max/Sum bookkeeping, Merge, and the comparable-value property
// the determinism tests rely on.
func TestHistAddMergeAndComparability(t *testing.T) {
	var a, b Hist
	for _, v := range []sim.Time{1, 2, 3, 4095, 4096, 1 << 24, -5} {
		a.Add(v)
	}
	if a.Count != 7 || a.Min != 0 || a.Max != 1<<24 {
		t.Fatalf("count/min/max = %d/%d/%d", a.Count, a.Min, a.Max)
	}
	for _, v := range []sim.Time{10, 20} {
		b.Add(v)
	}
	merged := a
	merged.Merge(b)
	if merged.Count != 9 || merged.Sum != a.Sum+b.Sum {
		t.Fatalf("merge count=%d sum=%d", merged.Count, merged.Sum)
	}
	var a2 Hist
	for _, v := range []sim.Time{1, 2, 3, 4095, 4096, 1 << 24, -5} {
		a2.Add(v)
	}
	if a != a2 {
		t.Fatal("identical insertion orders produced unequal hists")
	}
	if a == merged {
		t.Fatal("different hists compare equal")
	}
	if s := merged.String(); !strings.Contains(s, ":") {
		t.Fatalf("String() = %q, want occupied buckets", s)
	}
	var empty Hist
	if empty.String() != "-" || empty.Mean() != 0 {
		t.Fatalf("empty hist renders %q mean %v", empty.String(), empty.Mean())
	}
}

// TestLatenciesMerge checks that merged sample sets yield the same
// percentiles as a single combined set.
func TestLatenciesMerge(t *testing.T) {
	var a, b, all Latencies
	for i := 1; i <= 100; i++ {
		if i%2 == 0 {
			a.Add(sim.Time(i))
		} else {
			b.Add(sim.Time(i))
		}
		all.Add(sim.Time(i))
	}
	a.Merge(b)
	for _, q := range []float64{50, 90, 99} {
		if a.Percentile(q) != all.Percentile(q) {
			t.Fatalf("p%v: merged %d vs combined %d", q, a.Percentile(q), all.Percentile(q))
		}
	}
	if a.Hist != all.Hist {
		t.Fatal("merged hist differs from combined hist")
	}
}
