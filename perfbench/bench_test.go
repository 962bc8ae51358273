package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/cache"
	"stridepf/internal/core"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1500, 99, true},
		{1000, 99, true}, // exactly ten beyond p99
		{999, 95, true},
		{240, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestSummarizeReportsSampleCountAndTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.Samples != 1000 || s.TailPct != 99 || s.Tail != 990 || s.P50 != 500.5 {
		t.Fatalf("summarize = %+v; want 1000 samples, p50 500.5, p99 990", s)
	}
	few := summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if few.Samples != 3 || few.TailPct != 100 || few.Tail != 3 {
		t.Fatalf("with three samples the tail is the maximum, got %+v", few)
	}
}

func TestBestOpsKeepsEachCallsFastestTime(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	names := []string{"experiments.clean", "experiments.profile", "experiments.speedup"}
	var b bestOps
	for _, pass := range [][]time.Duration{ms(30, 10, 50), ms(20, 40, 60), ms(25, 15, 45)} {
		if err := b.add(names, pass); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.best; !slices.Equal(got, ms(20, 10, 45)) {
		t.Fatalf("best = %v; want each call's fastest time [20ms 10ms 45ms]", got)
	}
	if got := b.total(); got != 75*time.Millisecond {
		t.Fatalf("total = %v; want 75ms", got)
	}
	if s := b.summary(); s.Samples != 3 || s.P50 != 20 {
		t.Fatalf("summary = %+v; want 3 samples, p50 20ms", s)
	}
	if err := b.add(names[:2], ms(1, 1)); err == nil {
		t.Fatal("a pass with fewer calls was folded in")
	}
	if err := b.add([]string{names[1], names[0], names[2]}, ms(1, 1, 1)); err == nil {
		t.Fatal("a pass with its calls in another order was folded in")
	}
	if !slices.Equal(b.best, ms(20, 10, 45)) {
		t.Fatalf("a refused pass changed best to %v", b.best)
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.upload_batch", Start: 0, End: 100},
		// Two overlapping children: their union 10..60 is covered once.
		{ID: 2, Parent: 1, Name: "server.batch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "server.batch", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "walstore.upload", Start: 15, End: 20},
		// A child overrunning its parent is clipped to the parent.
		{ID: 5, Parent: 3, Name: "walstore.upload", Start: 50, End: 70},
		{ID: 6, Name: "experiments.tables", Start: 200, End: 230},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client":      50,      // 100 - (10..60)
		"server":      25 + 20, // (30 - 5) + (30 - 10)
		"walstore":    5 + 20,  // leaves keep their whole duration
		"experiments": 30,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := NewTracer("test")
	outer, endOuter := tr.Start("server.batch", 0)
	_, endInner := tr.Start("walstore.upload", outer)
	time.Sleep(time.Millisecond)
	endInner()
	endOuter()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "server.batch" || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if self["server"] >= time.Duration(spans[0].End-spans[0].Start) || self["walstore"] < int64ms(1) {
		t.Fatalf("self times %v do not separate parent from child", self)
	}
	var nilTracer *Tracer
	if id, end := nilTracer.Start("x", 0); id != 0 {
		t.Fatal("a nil tracer must not hand out span IDs")
	} else {
		end()
	}
}

func int64ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPlanLagMatchesDeltasToTheirBatch(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sent := []time.Time{t0, t0.Add(10 * time.Millisecond), t0.Add(20 * time.Millisecond), t0.Add(30 * time.Millisecond)}
	deltas := []received{
		{api.PlanDelta{Epoch: 1, Rounds: 1}, t0.Add(2 * time.Millisecond)},
		// Batch 2 changed nothing; batch 3 minted epoch 2.
		{api.PlanDelta{Epoch: 2, Rounds: 3}, t0.Add(23 * time.Millisecond)},
		{api.PlanDelta{Epoch: 3, Rounds: 4}, t0.Add(35 * time.Millisecond)},
	}
	lag, err := planLag(deltas, sent)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if lag[i] != want[i] {
			t.Errorf("lag of epoch %d = %v, want %v", i+1, lag[i], want[i])
		}
	}
	for _, rounds := range []int{0, 5} {
		bad := []received{{api.PlanDelta{Epoch: 1, Rounds: rounds}, t0}}
		if _, err := planLag(bad, sent); err == nil {
			t.Errorf("Rounds %d with %d batches sent must be refused", rounds, len(sent))
		}
	}
}

func TestCheckEpochsWantsExactlyOneThroughFinal(t *testing.T) {
	mk := func(epochs ...uint64) []received {
		var out []received
		for _, e := range epochs {
			out = append(out, received{delta: api.PlanDelta{Epoch: e}})
		}
		return out
	}
	if errs := checkEpochs(mk(1, 2, 3), 3); len(errs) != 0 {
		t.Fatalf("clean delivery reported %v", errs)
	}
	for name, c := range map[string]struct {
		got   []received
		final uint64
	}{
		"gap":       {mk(1, 3), 3},
		"duplicate": {mk(1, 2, 2, 3), 3},
		"tail":      {mk(1, 2), 3},
		"reset":     {append(mk(1), received{delta: api.PlanDelta{Epoch: 2, Reset: true}}), 2},
	} {
		if errs := checkEpochs(c.got, c.final); len(errs) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}

func TestCheckReplayComparesWithServerPlan(t *testing.T) {
	deltas := []received{
		{delta: api.PlanDelta{Epoch: 1, Changes: []api.PlanChange{{Func: "f", ID: 1, Class: "ssst", Stride: 8}, {Func: "f", ID: 2, Class: "ssst", Stride: 16}}}},
		{delta: api.PlanDelta{Epoch: 2, Changes: []api.PlanChange{{Func: "f", ID: 2, Class: "none", PrevClass: "ssst"}}}},
	}
	plan := []api.PlanChange{{Func: "f", ID: 1, Class: "ssst", Stride: 8}}
	if err := checkReplay(deltas, plan); err != nil {
		t.Fatal(err)
	}
	plan[0].Stride = 24
	if err := checkReplay(deltas, plan); err == nil {
		t.Fatal("a replica disagreeing on a stride passed")
	}
}

// A replay metric is only comparable with the run it stands for when it
// performs exactly the accesses that run made.
func TestReplayCountsTheRecordedAccesses(t *testing.T) {
	recs, m, err := recordStream("164.gzip", core.Workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	loads := m.Stats().LoadRefs
	if loads == 0 {
		t.Fatal("the recorded run made no loads")
	}
	h := cache.NewHierarchy(cache.ItaniumConfig())
	for _, r := range recs {
		h.Load(r.addr, r.now)
	}
	if err := replayCountErr("cache", loads, len(recs), h.Loads); err != nil {
		t.Fatal(err)
	}
	if err := replayCountErr("cache", loads, len(recs)-1, h.Loads); err == nil {
		t.Error("a stream missing a recorded load passed")
	}
	if err := replayCountErr("cache", loads, len(recs), h.Loads+1); err == nil {
		t.Error("a replay with an extra access passed")
	}
}

func TestSpeedupLinesGiveThePaperError(t *testing.T) {
	lines := speedupLines(map[string]float64{"181.mcf": 1.574, "186.crafty": 1.0}, []string{"181.mcf", "186.crafty"})
	if len(lines) != 2 || lines[0].Err == nil || math.Abs(*lines[0].Err-0.016) > 1e-9 || lines[1].Paper != nil {
		t.Fatalf("lines = %+v", lines)
	}
	avg, e := speedupSummary(lines)
	if math.Abs(avg-1.287) > 1e-9 || math.Abs(e-0.016) > 1e-9 {
		t.Fatalf("summary = %v, %v", avg, e)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	a := &report{Host: host{CPU: "a", NProc: 2, Go: "go1.24.0"}, Workload: "paper"}
	b := &report{Host: host{CPU: "b", NProc: 2, Go: "go1.24.0"}, Workload: "paper"}
	if err := writeJSON(dir+"/a.json", a); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(dir+"/b.json", b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compareReports(&out, dir+"/a.json", dir+"/b.json"); err == nil || !strings.Contains(err.Error(), "host") {
		t.Fatalf("compare across hosts: %v", err)
	}
	if err := compareReports(&out, dir+"/a.json", dir+"/a.json"); err != nil {
		t.Fatalf("compare on one host: %v", err)
	}
}

func TestLayerDocsAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range layerDocs() {
		if seen[d.name] || d.unit == "" || d.feeds == "" {
			t.Errorf("layer metric %q duplicated or undocumented", d.name)
		}
		seen[d.name] = true
	}
	if n := len(seen); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; BENCHMARK.json lists 1 to 128", n)
	}
}

var testKernels atomic.Uint64

// A small traced ingest pass exercises the producer, the subscriber, the
// server's handlers and the timing wrappers at once (run under -race), and
// must pass every oracle.
func TestIngestPassHoldsItsOracles(t *testing.T) {
	const batches = 40
	// Registered kernel names must be unique within the test binary.
	seed := 0xBE7C4 + 1000*testKernels.Add(1)
	in, err := makeIngestInputs(seed, batches, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := runIngestPass(context.Background(), in, t.TempDir()+"/pass", NewTracer("test"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ops.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", p.ops.failed, p.ops.attempted, p.ops.errs)
	}
	shards := batches * (1 + len(ingestRoster))
	if len(p.rtt) != batches || len(p.storeLat) != shards || len(p.handlerLat) != batches {
		t.Fatalf("%d round trips, %d store uploads, %d handler calls; want %d, %d, %d",
			len(p.rtt), len(p.storeLat), len(p.handlerLat), batches, shards, batches)
	}
	if p.deltas == 0 || len(p.lag) != p.deltas || p.resets != 0 {
		t.Fatalf("%d deltas, %d lags, %d resets", p.deltas, len(p.lag), p.resets)
	}
}
