package main

import (
	"sort"
	"time"
)

// series collects one operation type's latencies, in nanoseconds, split
// into equal time windows of the run. Reporting the median over windows
// of a per-window quantile keeps one disturbed stretch of a run (a noisy
// neighbour, a cold cache at the start) from moving the reported figure.
type series [][]int64

// newSeries makes a series of windows with room for perWindow samples
// each, so that a run of known length does not regrow its slices.
func newSeries(windows, perWindow int) series {
	s := make(series, windows)
	for i := range s {
		s[i] = make([]int64, 0, perWindow)
	}
	return s
}

func (s series) add(w int, ns int64) { s[w] = append(s[w], ns) }

func (s series) count() int {
	n := 0
	for _, w := range s {
		n += len(w)
	}
	return n
}

// merge appends o's samples window by window.
func (s series) merge(o series) {
	for i := range s {
		s[i] = append(s[i], o[i]...)
	}
}

// windowQuantileUS is the median over non-empty windows of each window's
// q-quantile, in microseconds; 0 when no window has samples.
func (s series) windowQuantileUS(q float64) float64 {
	var per []float64
	for _, w := range s {
		if len(w) == 0 {
			continue
		}
		sorted := append([]int64(nil), w...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		per = append(per, quantile(sorted, q)/1e3)
	}
	return median(per)
}

// wholeQuantileUS is the q-quantile of all samples, in microseconds.
func (s series) wholeQuantileUS(q float64) float64 {
	var all []int64
	for _, w := range s {
		all = append(all, w...)
	}
	return quantileOf(all, q) / 1e3
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileOf sorts xs in place and returns its q-quantile.
func quantileOf(xs []int64, q float64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return quantile(xs, q)
}

// windowOf maps an offset from the start of the run to its window,
// clamping offsets outside the run to the first or last window.
func windowOf(off, winLen time.Duration, windows int) int {
	w := int(off / winLen)
	if w < 0 {
		return 0
	}
	if w >= windows {
		return windows - 1
	}
	return w
}
