package main

import (
	"encoding/json"
	"math"
	"slices"

	"cni/internal/sim"
)

var nan = math.NaN()

// pct is a percentile together with its sample count. Over zero
// samples the percentile is absent: Valid is false and it marshals as
// null, never as 0.
type pct struct {
	Value float64
	N     int
	Valid bool
}

func (p pct) MarshalJSON() ([]byte, error) {
	var v any
	if p.Valid {
		v = p.Value
	}
	return json.Marshal(struct {
		Value any `json:"value"`
		N     int `json:"n"`
	}{v, p.N})
}

// percentile is the nearest-rank q-th percentile (q in (0,100]) of
// samples: the smallest sample with at least q% of samples at or below
// it. samples must be sorted ascending.
func percentile(samples []sim.Time, q float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{}
	}
	// The tolerance keeps float error in q/100*n (99% of 1000 computes
	// as 990.0000000000001) from moving the rank.
	rank := int(math.Ceil(q/100*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return pct{Value: float64(samples[rank-1]), N: n, Valid: true}
}

// sortedCopy returns the samples sorted ascending, leaving the input
// untouched.
func sortedCopy(samples []sim.Time) []sim.Time {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s
}

// median of xs (the mean of the middle two for an even count), NaN
// when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// perInput is the benchmark's estimator of a host-measured quantity:
// the median over the executions of each input, averaged over the
// run's inputs. Inputs differ in size, so pooling executions would let
// the number of repeats of each input move the result; the mean of
// per-input medians does not, and the medians reject noisy repeats.
func perInput(recs []execRecord, inputs int, f func(*execRecord) float64) float64 {
	byInput := make([][]float64, inputs)
	for i := range recs {
		if v := f(&recs[i]); !math.IsNaN(v) {
			byInput[recs[i].input] = append(byInput[recs[i].input], v)
		}
	}
	var sum float64
	var n int
	for _, xs := range byInput {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return nan
	}
	return sum / float64(n)
}

// quartiles are the first quartile, median and third quartile of xs
// (nil when fewer than two), as Python's statistics.quantiles gives
// them with its default exclusive method.
func quartiles(xs []float64) []float64 {
	n := len(xs)
	if n < 2 {
		return nil
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := make([]float64, 3)
	for i := range q {
		pos := float64((i+1)*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		delta := pos - float64(j)
		q[i] = s[j-1] + (s[j]-s[j-1])*delta
	}
	return q
}
