package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFigureCancelled checks that request cancellation aborts a figure
// computation quickly (via the simulator interrupt) instead of running the
// full pipeline to completion, and that the reported error is the context's.
func TestFigureCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	s := NewSession(Config{Workloads: []string{"197.parser"}})

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Figure(cctx, "16"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled figure err = %v, want context.Canceled", err)
	}

	cctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := s.Figure(cctx2, "16")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out figure err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}

	// The session must remain usable: errors (including cancellations) are
	// not memoised, so a live context recomputes and succeeds.
	if _, err := s.Figure(context.Background(), "16"); err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
}

// TestFigureTextMatchesCLIForms pins the FigureText output forms the CLI
// and daemon rely on.
func TestFigureTextMatchesCLIForms(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	s := sessionFor(t)
	tb, err := s.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}
	text, err := s.FigureText(ctx, "16", false)
	if err != nil {
		t.Fatal(err)
	}
	if text != tb.String()+"\n" {
		t.Error("FigureText text form is not String()+newline")
	}
	csv, err := s.FigureText(ctx, "16", true)
	if err != nil {
		t.Fatal(err)
	}
	if csv != tb.CSV() {
		t.Error("FigureText csv form is not CSV()")
	}
	f15, err := s.FigureText(ctx, "15", false)
	if err != nil {
		t.Fatal(err)
	}
	if f15 != s.Fig15()+"\n" {
		t.Error("FigureText 15 is not Fig15()+newline")
	}
	if _, err := s.FigureText(ctx, "99", false); err == nil {
		t.Error("unknown figure accepted")
	}
}
