package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..1) of vals by linear
// interpolation between closest ranks; NaN for an empty slice. vals is not
// modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// iqrShare is the distance between the first and third quartile as a share of
// the median: the spread -compare holds against a metric's bound.
func iqrShare(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 4 || m == 0 {
		return 0
	}
	return (percentile(vals, 0.75) - percentile(vals, 0.25)) / math.Abs(m)
}

// sample is one completed request as its client saw it.
type sample struct {
	end     time.Duration // completion time since the window opened
	latency time.Duration
	queries int // queries answered (0 for a failed request)
}

// boundary is one reading of the CPU clocks at a segment edge.
type boundary struct {
	at        time.Duration // since the window opened
	daemonCPU float64       // the daemon's utime+stime, seconds
	clientCPU float64       // the harness's own utime+stime, seconds
	rssMiB    float64       // the daemon's resident set
}

// segment is one slice of the measured window, as measured.
type segment struct {
	queries int
	qps     float64
	p50ms   float64
	// daemonCPU and clientCPU are CPU microseconds per answered query, the
	// daemon's and the load generator's own.
	daemonCPU float64
	clientCPU float64
}

// cutSegments buckets samples between consecutive boundaries. Neighbour
// noise on a shared box lasts seconds, so every timing metric is reported as
// the median over segments rather than over the whole window.
func cutSegments(samples []sample, bounds []boundary) []segment {
	if len(bounds) < 2 {
		return nil
	}
	segs := make([]segment, len(bounds)-1)
	lat := make([][]float64, len(segs))
	for _, s := range samples {
		// Segments are few; a linear scan beats a sort of the samples.
		for k := range segs {
			if s.end >= bounds[k].at && s.end < bounds[k+1].at {
				segs[k].queries += s.queries
				if s.queries > 0 {
					lat[k] = append(lat[k], float64(s.latency)/float64(time.Millisecond))
				}
				break
			}
		}
	}
	for k := range segs {
		width := (bounds[k+1].at - bounds[k].at).Seconds()
		n := float64(segs[k].queries)
		segs[k].qps = n / width
		segs[k].p50ms = median(lat[k])
		segs[k].daemonCPU = (bounds[k+1].daemonCPU - bounds[k].daemonCPU) * 1e6 / n
		segs[k].clientCPU = (bounds[k+1].clientCPU - bounds[k].clientCPU) * 1e6 / n
	}
	return segs
}

// column extracts one value from every segment.
func column(segs []segment, f func(segment) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}
