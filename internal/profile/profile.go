// Package profile defines the frequency- and stride-profile containers that
// flow from an instrumented training run into the profile-feedback pass,
// including the trip-count computation of the paper's Figure 10 and
// JSON (de)serialisation for the cmd tools.
package profile

import (
	"io"
	"os"
	"sort"

	"stridepf/internal/cfg"
	"stridepf/internal/ir"
	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/stride"
)

// EdgeKey identifies a CFG edge by function name and block indices. Block
// indices are stable because programs are built deterministically and
// instrumentation renumbers before profiling.
type EdgeKey struct {
	// Func is the function name.
	Func string `json:"func"`
	// From is the source block's index.
	From int `json:"from"`
	// To is the destination block's index.
	To int `json:"to"`
}

// Edge is a serialisable edge count.
type Edge struct {
	// Key identifies the edge.
	Key EdgeKey `json:"key"`
	// Count is the traversal count.
	Count uint64 `json:"count"`
}

// EdgeProfile holds edge traversal counts for a whole program, plus
// per-function entry counts (the call-count information real profiling
// infrastructures record; needed to derive block frequencies in functions
// whose entry block has no incoming edges).
type EdgeProfile struct {
	counts  map[EdgeKey]uint64
	entries map[string]uint64
}

// NewEdgeProfile returns an empty edge profile.
func NewEdgeProfile() *EdgeProfile {
	return &EdgeProfile{counts: make(map[EdgeKey]uint64), entries: make(map[string]uint64)}
}

// SetEntryCount records how many times function fn was entered.
func (p *EdgeProfile) SetEntryCount(fn string, count uint64) { p.entries[fn] = count }

// EntryCount returns how many times function fn was entered.
func (p *EdgeProfile) EntryCount(fn string) uint64 { return p.entries[fn] }

// Set records the count of an edge.
func (p *EdgeProfile) Set(k EdgeKey, count uint64) { p.counts[k] = count }

// Count returns the traversal count of an edge (zero if never seen).
func (p *EdgeProfile) Count(k EdgeKey) uint64 { return p.counts[k] }

// EdgeCount is a convenience lookup by function and blocks.
func (p *EdgeProfile) EdgeCount(fn string, from, to *ir.Block) uint64 {
	return p.counts[EdgeKey{Func: fn, From: from.Index, To: to.Index}]
}

// Len returns the number of recorded edges.
func (p *EdgeProfile) Len() int { return len(p.counts) }

// BlockFreq derives a block's execution frequency from edge counts: the sum
// of its outgoing edge counts, or of its incoming counts for exit blocks.
// Parallel edges (a two-way branch with identical targets) share a single
// counter, which keeps the flow equations exact.
func (p *EdgeProfile) BlockFreq(fn string, b *ir.Block) uint64 {
	succs := b.Succs()
	if len(succs) == 0 {
		var sum uint64
		seen := map[*ir.Block]bool{}
		for _, pr := range b.Preds {
			if seen[pr] {
				continue
			}
			seen[pr] = true
			sum += p.EdgeCount(fn, pr, b)
		}
		if b.Index == 0 {
			// Entry block: executions with no incoming edge come from calls.
			sum += p.entries[fn]
		}
		return sum
	}
	var sum uint64
	seen := map[*ir.Block]bool{}
	for _, s := range succs {
		if seen[s] {
			continue
		}
		seen[s] = true
		sum += p.EdgeCount(fn, b, s)
	}
	return sum
}

// TripCount computes a loop's average trip count per Figure 10: the header
// block's frequency divided by the total frequency entering the loop from
// outside. A loop never entered has trip count zero.
func (p *EdgeProfile) TripCount(fn string, l *cfg.Loop) float64 {
	var enter uint64
	for _, e := range l.EntryEdges {
		enter += p.EdgeCount(fn, e.From, e.To)
	}
	if enter == 0 {
		return 0
	}
	header := p.BlockFreq(fn, l.Header)
	return float64(header) / float64(enter)
}

// Edges returns all recorded edges sorted by key (for serialisation and
// deterministic diffing).
func (p *EdgeProfile) Edges() []Edge {
	out := make([]Edge, 0, len(p.counts))
	for k, c := range p.counts {
		out = append(out, Edge{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// StrideProfile holds the per-load stride summaries of a profiling run.
type StrideProfile struct {
	byKey map[machine.LoadKey]stride.Summary
}

// NewStrideProfile builds a profile from runtime summaries.
func NewStrideProfile(sums []stride.Summary) *StrideProfile {
	p := &StrideProfile{byKey: make(map[machine.LoadKey]stride.Summary, len(sums))}
	for _, s := range sums {
		p.byKey[s.Key] = s
	}
	return p
}

// Lookup returns the summary for a load, if profiled.
func (p *StrideProfile) Lookup(k machine.LoadKey) (stride.Summary, bool) {
	s, ok := p.byKey[k]
	return s, ok
}

// Len returns the number of profiled loads.
func (p *StrideProfile) Len() int { return len(p.byKey) }

// Summaries returns all summaries sorted by key.
func (p *StrideProfile) Summaries() []stride.Summary {
	out := make([]stride.Summary, 0, len(p.byKey))
	for _, s := range p.byKey {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Func != out[j].Key.Func {
			return out[i].Key.Func < out[j].Key.Func
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// fileFormat is the on-disk representation of a combined profile (see
// codec.go); FineInterval is the header's fine-sampling interval, omitted
// when zero.
type fileFormat struct {
	Version      int               `json:"version"`
	FineInterval int               `json:"fineInterval,omitempty"`
	Edges        []Edge            `json:"edges"`
	Entries      map[string]uint64 `json:"entries,omitempty"`
	Strides      []stride.Summary  `json:"strides"`
}

// Combined pairs the two profiles a single integrated profiling run
// produces (Section 3.2: one pass collects both).
type Combined struct {
	// Edge is the frequency profile.
	Edge *EdgeProfile
	// Stride is the stride profile.
	Stride *StrideProfile
	// Interval is the fine-sampling interval carried by the profile header
	// (v2 files), kept even when no stride summary records one — e.g. a
	// sampled shard whose strides were all evicted. Zero means "unknown";
	// FineInterval() resolves the header and per-summary values together.
	// Without it, such a shard would re-encode with interval 0 and could
	// silently merge with a differently-sampled shard.
	Interval int
}

// Clone returns a deep copy sharing no mutable state with c: edge and
// entry maps, the summary map and every TopStrides slice are copied.
// Stores hand clones to callers so mutating a returned aggregate can never
// corrupt the aggregate behind the store's lock.
func (c *Combined) Clone() *Combined {
	if c == nil {
		return nil
	}
	out := &Combined{Interval: c.Interval}
	if c.Edge != nil {
		ep := NewEdgeProfile()
		for k, v := range c.Edge.counts {
			ep.counts[k] = v
		}
		for fn, v := range c.Edge.entries {
			ep.entries[fn] = v
		}
		out.Edge = ep
	}
	if c.Stride != nil {
		sp := &StrideProfile{byKey: make(map[machine.LoadKey]stride.Summary, len(c.Stride.byKey))}
		for k, s := range c.Stride.byKey {
			// Preserve nil vs empty: the codec encodes them differently
			// (null vs []), and stores compare aggregates byte-exactly.
			if s.TopStrides != nil {
				s.TopStrides = append(make([]lfu.Entry, 0, len(s.TopStrides)), s.TopStrides...)
			}
			if s.Paths != nil {
				paths := append(make([]stride.PathSummary, 0, len(s.Paths)), s.Paths...)
				for i := range paths {
					if paths[i].TopStrides != nil {
						paths[i].TopStrides = append(
							make([]lfu.Entry, 0, len(paths[i].TopStrides)), paths[i].TopStrides...)
					}
				}
				s.Paths = paths
			}
			sp.byKey[k] = s
		}
		out.Stride = sp
	}
	return out
}

// Write serialises the combined profile as JSON via DefaultCodec.
func (c *Combined) Write(w io.Writer) error { return DefaultCodec.Encode(w, c) }

// Read deserialises a combined profile via DefaultCodec, accepting any
// supported format version.
func Read(r io.Reader) (*Combined, error) { return DefaultCodec.Decode(r) }

// Save writes the combined profile to a file.
func (c *Combined) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Write(f)
}

// Load reads a combined profile from a file.
func Load(path string) (*Combined, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
