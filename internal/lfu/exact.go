// Exact is the brute-force reference implementation of the value profiler:
// it counts every observation in an unbounded map, so its Top is the true
// frequency ranking. The differential tests in internal/simcheck compare
// the bounded two-buffer Profiler against it — exact agreement is required
// while the number of distinct values fits the final buffer, and the
// dominant value must agree even on skewed streams that overflow it.
package lfu

import "sort"

// Exact counts value observations without capacity bounds.
type Exact struct {
	cfg Config
	// counts maps a bucket's canonical key to its observation count.
	counts map[int64]int64
	// rep maps a bucket's canonical key to its representative value: the
	// first value observed in the bucket, matching how Profiler entries keep
	// the first-seen value when SameMask merges nearby values.
	rep map[int64]int64
	// order remembers first-observation order for deterministic iteration.
	order []int64
}

// NewExact returns an empty exact profiler with the same matching rules
// (SameMask) as a Profiler built from cfg.
func NewExact(cfg Config) *Exact {
	cfg.fill()
	return &Exact{cfg: cfg, counts: make(map[int64]int64), rep: make(map[int64]int64)}
}

// key returns v's canonical bucket key under the configured mask.
func (e *Exact) key(v int64) int64 {
	if e.cfg.SameMask == 0 {
		return v
	}
	return v &^ e.cfg.SameMask
}

// Add records one observation of v.
func (e *Exact) Add(v int64) {
	k := e.key(v)
	if _, ok := e.counts[k]; !ok {
		e.rep[k] = v
		e.order = append(e.order, k)
	}
	e.counts[k]++
}

// Top returns up to k entries by decreasing true frequency, with the same
// deterministic tie-break as Profiler.Top: smaller representative value
// first.
func (e *Exact) Top(k int) []Entry {
	out := make([]Entry, 0, len(e.order))
	for _, key := range e.order {
		out = append(out, Entry{Value: e.rep[key], Freq: e.counts[key]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
