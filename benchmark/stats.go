package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// sorted: the smallest sample with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// minBeyond is the sample-count rule: a percentile is only quoted as a
// headline number when at least this many samples lie beyond it.
const minBeyond = 10

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method, which is what Python's statistics.quantiles(xs, n=4) computes
// and therefore what the driver's spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopSlices is how many equal slices an open-loop window is cut
// into for its headline percentiles. An open loop charges one stall, of
// the host as much as of the server, to every request that was due while
// it lasted, so a single stall of a third of a second moves the 95th
// percentile of a twelve-second window; the median over five slices of
// each slice's own percentile does not move unless three slices have one.
// In a closed loop a stall delays one request per client, and the
// percentiles are those of the whole window.
const openLoopSlices = 5

// slicePercentile cuts the window into k equal slices by completion time
// and returns the median over the slices of each slice's p-th percentile,
// and the size of the smallest slice. With k = 1 it is the percentile of
// the whole window.
func slicePercentile(w *window, k int, p float64) (v float64, minN int) {
	lat := make([][]float64, k)
	for i := range w.samples {
		s := &w.samples[i]
		if s.err != "" {
			continue
		}
		j := int(int64(s.end) * int64(k) / int64(w.dur))
		if j >= k {
			j = k - 1 // in flight when the window closed
		}
		lat[j] = append(lat[j], ms(s.latency()))
	}
	var vals []float64
	minN = len(w.samples)
	for _, l := range lat {
		if len(l) < minN {
			minN = len(l)
		}
		if len(l) > 0 {
			sort.Float64s(l)
			vals = append(vals, percentile(l, p))
		}
	}
	return median(vals), minN
}

// classLatencies returns the sorted latencies (ms) of the successful
// samples for which keep is true.
func classLatencies(w *window, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range w.samples {
		if s := &w.samples[i]; s.err == "" && keep(s) {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}
