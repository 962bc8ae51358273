package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Spans are recorded only by the traced run and kept in memory until the
// run ends; the program itself carries no tracing.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Layer is the span name up to its first dot ("walstore.upload" belongs to
// layer "walstore").
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer records spans for one run. It is safe for concurrent use: the
// ingest workload records from the producer, the server's handler
// goroutines and the subscriber at once. A nil *Tracer records nothing, so
// untraced code paths call the same functions.
type Tracer struct {
	// RunID identifies the run every span belongs to.
	RunID string

	origin time.Time
	mu     sync.Mutex
	next   uint64
	spans  []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer(runID string) *Tracer {
	return &Tracer{RunID: runID, origin: time.Now()}
}

// Start opens a span under parent (0 for a root span) and returns its ID
// and the function that closes it.
func (t *Tracer) Start(name string, parent uint64) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans ordered by start time.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the part of each span's interval that its child spans cover.
// Children are clipped to their parent, and overlapping children (the
// subscriber's spans beside the producer's) are counted once.
func selfTimes(spans []Span) map[string]time.Duration {
	return selfBy(spans, Span.Layer)
}

// selfBy sums self times grouped by key.
func selfBy(spans []Span, key func(Span) string) map[string]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		out[key(s)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNS is the length of the union of the children's intervals within
// the parent's interval.
func coveredNS(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
