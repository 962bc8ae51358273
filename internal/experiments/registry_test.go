package experiments

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// memoKeys returns the keys of the session's memo table.
func memoKeys(s *Session) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	return keys
}

// TestWarmCoversTables checks, for every registered figure on a fresh
// session, that Warm computes every cell the figure's table reads:
// assembling the table after warming adds no memo entry.
func TestWarmCoversTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	for _, name := range AllFigureNames() {
		t.Run(name, func(t *testing.T) {
			s := NewSession(Config{Workloads: []string{"197.parser"}})
			s.Warm(ctx, 4, name)
			warmed := len(memoKeys(s))
			if _, err := s.FigureText(ctx, name, false); err != nil {
				t.Fatal(err)
			}
			if got := len(memoKeys(s)); got != warmed {
				t.Errorf("figure %s: table added %d memo entries after Warm", name, got-warmed)
			}
		})
	}
}

// TestSensitivityTrainColumnIsFig16Cell checks that Figures 23-25 read
// their train column from Figure 16's sample-edge-check cell instead of
// re-simulating it under their own labels: the paper figures on one
// workload measure 9 speedups (six methods plus three mixed columns), and
// every train column equals Figure 16's sample-edge-check value.
func TestSensitivityTrainColumnIsFig16Cell(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	s := NewSession(Config{Workloads: []string{"197.parser"}, Jobs: 1})
	if err := s.runAll(ctx, io.Discard); err != nil {
		t.Fatal(err)
	}
	speedups := 0
	for _, k := range memoKeys(s) {
		if strings.HasPrefix(k, "speedup|") {
			speedups++
		}
	}
	if speedups != 9 {
		t.Errorf("RunAll on one workload memoised %d speedups, want 9", speedups)
	}
	f16, err := s.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}
	want := f16.Rows[0].Values[3] // sample-edge-check
	for _, name := range []string{"23", "24", "25"} {
		tb, err := s.Figure(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.Rows[0].Values[0]; got != want {
			t.Errorf("figure %s train = %v, want Figure 16's sample-edge-check %v", name, got, want)
		}
	}
}

// TestUnknownFigureError pins the typed error: an unregistered name, and a
// table request for the text-only Figure 15, both wrap ErrUnknownFigure.
func TestUnknownFigureError(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"197.parser"}})
	if _, err := s.Figure(ctx, "99"); !errors.Is(err, ErrUnknownFigure) {
		t.Errorf("Figure(99) err = %v, want ErrUnknownFigure", err)
	}
	if _, err := s.FigureText(ctx, "99", false); !errors.Is(err, ErrUnknownFigure) {
		t.Errorf("FigureText(99) err = %v, want ErrUnknownFigure", err)
	}
	if _, err := s.Figure(ctx, "15"); !errors.Is(err, ErrUnknownFigure) {
		t.Errorf("Figure(15) err = %v, want ErrUnknownFigure", err)
	}
	if _, err := s.FigureText(ctx, "15", false); err != nil {
		t.Errorf("FigureText(15) err = %v", err)
	}
}
