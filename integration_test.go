package stridepf

import (
	"context"
	"testing"

	"stridepf/internal/experiments"
)

// ctx is the background context the root-package tests and benchmarks share.
var ctx = context.Background()

// TestHeadlineResults asserts the paper's headline claims on the full
// twelve-benchmark suite (skipped under -short; the simulation takes a
// little while):
//
//   - 181.mcf speeds up by well over 1.4x, 254.gap by over 1.08x,
//     197.parser by over 1.05x, with a suite average of at least 5%;
//   - no benchmark slows down under any profiling method;
//   - the integrated sample-edge-check profiling pass costs on the order
//     of the paper's 17% over frequency profiling alone, and far less than
//     the naive methods;
//   - the methods produce near-identical speedups (the paper's argument
//     for choosing the cheapest one).
func TestHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation in -short mode")
	}
	s := experiments.NewSession(experiments.Config{})

	fig16, err := s.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(tb *experiments.Table, row, col string) float64 {
		t.Helper()
		ci := -1
		for i, c := range tb.Columns {
			if c == col {
				ci = i
			}
		}
		if ci < 0 {
			t.Fatalf("column %q missing", col)
		}
		for _, r := range tb.Rows {
			if r.Name == row {
				return r.Values[ci]
			}
		}
		t.Fatalf("row %q missing", row)
		return 0
	}

	if v := cell(fig16, "181.mcf", "edge-check"); v < 1.40 {
		t.Errorf("mcf speedup = %.3f, want > 1.40", v)
	}
	if v := cell(fig16, "254.gap", "edge-check"); v < 1.08 {
		t.Errorf("gap speedup = %.3f, want > 1.08", v)
	}
	if v := cell(fig16, "197.parser", "edge-check"); v < 1.05 {
		t.Errorf("parser speedup = %.3f, want > 1.05", v)
	}
	if v := cell(fig16, "average", "edge-check"); v < 1.05 {
		t.Errorf("average speedup = %.3f, want >= 1.05", v)
	}
	// No slowdowns anywhere.
	for _, r := range fig16.Rows {
		for ci, v := range r.Values {
			if v < 0.99 {
				t.Errorf("%s under %s slows down: %.3f", r.Name, fig16.Columns[ci], v)
			}
		}
	}
	// Methods agree within a few percent on average.
	avgRow := fig16.Rows[len(fig16.Rows)-1]
	min, max := avgRow.Values[0], avgRow.Values[0]
	for _, v := range avgRow.Values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 0.05 {
		t.Errorf("profiling methods disagree too much: averages %v", avgRow.Values)
	}

	fig20, err := s.Figure(ctx, "20")
	if err != nil {
		t.Fatal(err)
	}
	sampled := cell(fig20, "average", "sample-edge-check")
	if sampled < 0.02 || sampled > 0.40 {
		t.Errorf("sample-edge-check overhead = %.3f, want in the ~17%% ballpark", sampled)
	}
	naiveAll := cell(fig20, "average", "naive-all")
	if naiveAll < 3*sampled {
		t.Errorf("naive-all overhead %.3f not clearly above sampled %.3f", naiveAll, sampled)
	}

	// Figure 22's fast-path effect: naive-all LFU rate well below 100%.
	fig22, err := s.Figure(ctx, "22")
	if err != nil {
		t.Fatal(err)
	}
	if v := cell(fig22, "average", "naive-all"); v > 90 {
		t.Errorf("naive-all LFU rate = %.1f%%, zero-stride fast path not visible", v)
	}
}
