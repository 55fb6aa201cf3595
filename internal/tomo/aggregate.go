package tomo

import (
	"fmt"
	"math"
)

// Aggregator accumulates per-path end-to-end measurements across epochs
// and exposes their running mean and spread. Real probes are noisy and
// intermittently missing (failed paths yield no sample); tomography
// systems therefore average a measurement window before solving (the
// paper's measurement-collection windows, Section I). Welford's algorithm
// keeps the accumulation single-pass and numerically stable.
type Aggregator struct {
	count []int
	mean  []float64
	m2    []float64
}

// NewAggregator returns an aggregator for the given number of candidate
// paths.
func NewAggregator(paths int) (*Aggregator, error) {
	if paths <= 0 {
		return nil, fmt.Errorf("tomo: aggregator needs paths > 0, got %d", paths)
	}
	return &Aggregator{
		count: make([]int, paths),
		mean:  make([]float64, paths),
		m2:    make([]float64, paths),
	}, nil
}

// Observe records one epoch's measurement for a path. A NaN or infinite
// value is an error and leaves the path's statistics as they were: folded
// in, it would turn the running mean non-finite for good.
func (a *Aggregator) Observe(path int, value float64) error {
	if path < 0 || path >= len(a.count) {
		return fmt.Errorf("tomo: path %d out of range [0,%d)", path, len(a.count))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("tomo: measurement of path %d is %v", path, value)
	}
	a.count[path]++
	delta := value - a.mean[path]
	a.mean[path] += delta / float64(a.count[path])
	a.m2[path] += delta * (value - a.mean[path])
	return nil
}

// Count returns the number of samples recorded for a path.
func (a *Aggregator) Count(path int) int { return a.count[path] }

// Mean returns the running mean measurement of a path; ok is false when
// the path has no samples.
func (a *Aggregator) Mean(path int) (mean float64, ok bool) {
	if a.count[path] == 0 {
		return 0, false
	}
	return a.mean[path], true
}

// StdDev returns the sample standard deviation of a path's measurements
// (0 with fewer than two samples).
func (a *Aggregator) StdDev(path int) float64 {
	if a.count[path] < 2 {
		return 0
	}
	return math.Sqrt(a.m2[path] / float64(a.count[path]-1))
}

// Covered returns the indices of paths with at least minSamples samples,
// in ascending order — the rows eligible to enter a System.
func (a *Aggregator) Covered(minSamples int) []int {
	if minSamples < 1 {
		minSamples = 1
	}
	var out []int
	for i, c := range a.count {
		if c >= minSamples {
			out = append(out, i)
		}
	}
	return out
}

// SystemInputs returns the (paths, means) pair for all paths with at
// least minSamples samples, ready to feed NewSystem.
func (a *Aggregator) SystemInputs(minSamples int) (idx []int, y []float64) {
	idx = a.Covered(minSamples)
	y = make([]float64, len(idx))
	for k, i := range idx {
		y[k] = a.mean[i]
	}
	return idx, y
}
