package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// ctx is the background context the non-cancellation tests share.
var ctx = context.Background()

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("x", 1.5, 2)
	tb.AddRow("longername", 3, math.NaN())
	tb.Mean()
	out := tb.String()
	for _, want := range []string{"T\n", "benchmark", "longername", "average", "1.500", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTableMean(t *testing.T) {
	tb := &Table{Columns: []string{"v"}}
	tb.AddRow("a", 1)
	tb.AddRow("b", 3)
	tb.Mean()
	if got := tb.Rows[2].Values[0]; got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
}

func TestPaperMethodsOrder(t *testing.T) {
	ms := PaperMethods()
	want := []string{"edge-check", "naive-loop", "naive-all",
		"sample-edge-check", "sample-naive-loop", "sample-naive-all"}
	if len(ms) != len(want) {
		t.Fatalf("got %d methods", len(ms))
	}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Errorf("method[%d] = %s, want %s", i, m.Name, want[i])
		}
	}
}

// sessionFor runs figures on the fastest pointer-heavy subset; parser is
// included because it exercises out-loop prefetching.
func sessionFor(t *testing.T) *Session {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	return NewSession(Config{Workloads: []string{"197.parser", "255.vortex"}})
}

func TestFig16Headline(t *testing.T) {
	s := sessionFor(t)
	tb, err := s.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // two benchmarks + average
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows[:2] {
		for ci, v := range r.Values {
			if v < 0.98 {
				t.Errorf("%s %s speedup = %.3f (slowdown)", r.Name, tb.Columns[ci], v)
			}
		}
	}
	// parser's edge-check speedup must be a real gain.
	if tb.Rows[0].Name != "197.parser" || tb.Rows[0].Values[0] < 1.05 {
		t.Errorf("parser edge-check speedup = %.3f, want >= 1.05", tb.Rows[0].Values[0])
	}
}

func TestFig17SumsTo100(t *testing.T) {
	s := sessionFor(t)
	tb, err := s.Figure(ctx, "17")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if math.Abs(r.Values[0]+r.Values[1]-100) > 0.01 {
			t.Errorf("%s: in+out = %.2f", r.Name, r.Values[0]+r.Values[1])
		}
	}
}

func TestFig18And19Consistency(t *testing.T) {
	s := sessionFor(t)
	t18, err := s.Figure(ctx, "18")
	if err != nil {
		t.Fatal(err)
	}
	t19, err := s.Figure(ctx, "19")
	if err != nil {
		t.Fatal(err)
	}
	t17, err := s.Figure(ctx, "17")
	if err != nil {
		t.Fatal(err)
	}
	// Per benchmark: the class shares of each group cannot exceed the
	// group's share of references (loads with zero runtime refs drop out).
	for i := range t18.Rows[:len(t18.Rows)-1] {
		var out, in float64
		for ci := range t18.Columns {
			out += t18.Rows[i].Values[ci]
			in += t19.Rows[i].Values[ci]
		}
		// Note Fig17 measures the ref input while Fig18/19 weight by train
		// references, so allow slack.
		if out > t17.Rows[i].Values[1]+15 {
			t.Errorf("%s: out-loop classes sum %.1f > out-loop share %.1f",
				t18.Rows[i].Name, out, t17.Rows[i].Values[1])
		}
		if in > t17.Rows[i].Values[0]+15 {
			t.Errorf("%s: in-loop classes sum %.1f > in-loop share %.1f",
				t19.Rows[i].Name, in, t17.Rows[i].Values[0])
		}
	}
}

func TestFig20OverheadOrdering(t *testing.T) {
	s := sessionFor(t)
	tb, err := s.Figure(ctx, "20")
	if err != nil {
		t.Fatal(err)
	}
	avg := tb.Rows[len(tb.Rows)-1].Values
	// Columns: edge-check, naive-loop, naive-all, sample-*.
	if !(avg[0] < avg[1] && avg[1] < avg[2]) {
		t.Errorf("unsampled overhead ordering violated: %v", avg[:3])
	}
	if !(avg[3] < avg[0] && avg[4] < avg[1] && avg[5] < avg[2]) {
		t.Errorf("sampling did not reduce overhead: %v", avg)
	}
	for _, v := range avg {
		if v < 0 {
			t.Errorf("negative overhead %v", v)
		}
	}
}

func TestFig21And22Rates(t *testing.T) {
	s := sessionFor(t)
	t21, err := s.Figure(ctx, "21")
	if err != nil {
		t.Fatal(err)
	}
	t22, err := s.Figure(ctx, "22")
	if err != nil {
		t.Fatal(err)
	}
	for ri := range t21.Rows {
		for ci := range t21.Columns {
			p21 := t21.Rows[ri].Values[ci]
			p22 := t22.Rows[ri].Values[ci]
			if p21 < 0 || p21 > 100.5 {
				t.Errorf("%s/%s: strideProf rate %.1f out of range",
					t21.Rows[ri].Name, t21.Columns[ci], p21)
			}
			// LFU processes a subset of strideProf's references (the
			// zero-stride fast path bypasses it).
			if p22 > p21+0.01 {
				t.Errorf("%s/%s: LFU rate %.1f exceeds strideProf rate %.1f",
					t21.Rows[ri].Name, t21.Columns[ci], p22, p21)
			}
		}
	}
	// naive-all processes every program load reference.
	na := t21.Rows[0].Values[2]
	if na < 99.5 {
		t.Errorf("naive-all strideProf rate = %.1f, want 100", na)
	}
}

func TestFig23To25Stability(t *testing.T) {
	s := sessionFor(t)
	for _, name := range []string{"23", "24", "25"} {
		tb, err := s.Figure(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tb.Rows {
			// Train- and ref-derived profiles must land close to each other
			// (the paper's stability claim).
			if math.Abs(r.Values[0]-r.Values[1]) > 0.08 {
				t.Errorf("%s / %s: %v vs %v differ too much", tb.Title, r.Name,
					r.Values[0], r.Values[1])
			}
		}
	}
}

func TestFig15Lists(t *testing.T) {
	s := NewSession(Config{})
	out := s.Fig15()
	if !strings.Contains(out, "181.mcf") || !strings.Contains(out, "Combinatorial") {
		t.Errorf("Fig15 output incomplete:\n%s", out)
	}
}

func TestRunAllSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var buf bytes.Buffer
	err := RunAll(ctx, &buf, Config{Workloads: []string{"197.parser"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"Figure 15", "Figure 16", "Figure 20", "Figure 25"} {
		if !strings.Contains(buf.String(), fig) {
			t.Errorf("RunAll output missing %s", fig)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"999.bogus"}})
	if _, err := s.Figure(ctx, "16"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFig16Variance(t *testing.T) {
	if testing.Short() {
		t.Skip("variance study in -short mode")
	}
	tb, err := Fig16Variance("197.parser", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 { // 3 seeds + mean/min/max
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	var mean, min, max float64
	for _, r := range tb.Rows {
		switch r.Name {
		case "mean":
			mean = r.Values[0]
		case "min":
			min = r.Values[0]
		case "max":
			max = r.Values[0]
		}
	}
	if !(min <= mean && mean <= max) {
		t.Errorf("summary ordering broken: %v %v %v", min, mean, max)
	}
	// Speedup must be robust to reseeding: every seed shows a gain, and the
	// spread stays small.
	if min < 1.03 {
		t.Errorf("reseeded parser speedup dropped to %.3f", min)
	}
	if max-min > 0.08 {
		t.Errorf("speedup spread %.3f too wide across seeds", max-min)
	}

	if _, err := Fig16Variance("999.unknown", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b,c"}}
	tb.AddRow("x", 1.25, math.NaN())
	csv := tb.CSV()
	want := "benchmark,a,\"b,c\"\nx,1.250,\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
