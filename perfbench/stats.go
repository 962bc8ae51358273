package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. The tail rule picks the highest one with at least minBeyond
// samples above it, so a tail figure never rests on one or two outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it, and false when n is too small for even
// the median to qualify.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small epsilon keeps a product such as 99.9% of 10000 from rounding
// up a rank.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[nearestRank(p, len(xs))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a timing distribution reported the way the benchmark
// reports every timing: median, the tail percentile chosen by tailPercentile,
// and the sample count that choice rests on.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// summarize reports durations in milliseconds. With too few samples for
// any qualifying tail, the maximum stands in and TailPct reads 100.
func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	s := latencySummary{Samples: len(ms), P50: median(ms)}
	p, ok := tailPercentile(len(ms))
	if !ok {
		p = 100
	}
	s.TailPct = p
	s.Tail = percentile(ms, p)
	return s
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bestOps keeps each operation's fastest time over a run's passes. Every
// pass of a simulator workload makes the same stage calls in the same
// order on the same inputs, each a single-threaded computation of tens to
// hundreds of milliseconds, and what other tenants of a shared host do
// only ever adds time to one, so its fastest time over the passes is the
// steadiest estimate of what it costs, as long as some pass of the run
// catches a quiet moment. README.md has the measurements.
type bestOps struct {
	names []string
	best  []time.Duration
}

// add folds one pass's operation names and times in. The names must equal
// the first pass's: a pass that did different work cannot be compared call
// by call.
func (b *bestOps) add(names []string, ds []time.Duration) error {
	if len(names) != len(ds) {
		return fmt.Errorf("%d operation names for %d times", len(names), len(ds))
	}
	if b.best == nil {
		b.names = slices.Clone(names)
		b.best = slices.Clone(ds)
		return nil
	}
	if !slices.Equal(names, b.names) {
		return fmt.Errorf("a pass made %d stage calls where the first made %d, or in another order", len(names), len(b.names))
	}
	for i, d := range ds {
		b.best[i] = min(b.best[i], d)
	}
	return nil
}

// total is the sum of the operations' fastest times: the pass time on a
// quiet host.
func (b *bestOps) total() time.Duration {
	var t time.Duration
	for _, d := range b.best {
		t += d
	}
	return t
}

// summary is the latency distribution of the operations' fastest times.
func (b *bestOps) summary() latencySummary { return summarize(b.best) }

// passLatency collects one latency summary per pass. Every pass performs
// the same operations, so each pass's tail sits at the same percentile; a
// run reports the median over its passes of the p50 and of the tail.
// Pooling the samples instead would move the tail percentile with the
// number of passes that fit in the run.
type passLatency struct {
	p50, tail []float64
	last      latencySummary
}

func (l *passLatency) add(ds []time.Duration) {
	s := summarize(ds)
	l.p50 = append(l.p50, s.P50)
	l.tail = append(l.tail, s.Tail)
	l.last = s
}

// summary returns the per-pass sample count and tail percentile with the
// medians over passes.
func (l *passLatency) summary() latencySummary {
	s := l.last
	s.P50, s.Tail = median(l.p50), median(l.tail)
	return s
}
