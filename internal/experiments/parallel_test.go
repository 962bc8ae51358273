package experiments

import (
	"bytes"
	"os"
	"testing"
)

// runAllGolden is the committed output of
//
//	go run ./cmd/experiments -figure all -workloads 197.parser,255.vortex -j 1
//
// It pins the absolute bytes of every paper figure on the short roster, so
// a refactor of the session cannot move a number without regenerating it.
const runAllGolden = "testdata/runall_197.parser_255.vortex.golden"

// TestParallelMatchesSerial asserts the determinism contract of the parallel
// pipeline: with a fixed seed, RunAll under a multi-worker pool produces
// byte-for-byte identical figure tables to a serial run, and the serial run
// matches the committed golden. Run under -race this also exercises the
// singleflight memo and the shared-program analysis cache for data races.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	workloads := []string{"197.parser", "255.vortex"}

	var serial bytes.Buffer
	if err := RunAll(ctx, &serial, Config{Workloads: workloads, Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(runAllGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), want) {
		t.Errorf("serial output diverges from %s\n--- got ---\n%s\n--- want ---\n%s",
			runAllGolden, serial.String(), want)
	}
	var parallel bytes.Buffer
	if err := RunAll(ctx, &parallel, Config{Workloads: workloads, Jobs: 4}); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestWarmSingleFigure checks the single-figure warm path used by the CLI:
// warming only Figure 16 must leave the session producing the same table as
// an unwarmed serial session.
func TestWarmSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	workloads := []string{"197.parser"}

	cold := NewSession(Config{Workloads: workloads})
	want, err := cold.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}

	warm := NewSession(Config{Workloads: workloads, Jobs: 4})
	warm.Warm(ctx, 4, "16")
	got, err := warm.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}

	if got.String() != want.String() {
		t.Errorf("warmed Fig16 differs from cold run\n--- cold ---\n%s\n--- warmed ---\n%s",
			want, got)
	}
}

func TestConfigJobs(t *testing.T) {
	if got := (&Config{Jobs: 3}).jobs(); got != 3 {
		t.Errorf("jobs() = %d, want 3", got)
	}
	if got := (&Config{}).jobs(); got < 1 {
		t.Errorf("default jobs() = %d, want >= 1", got)
	}
	if got := (&Config{Jobs: -2}).jobs(); got < 1 {
		t.Errorf("jobs() with negative config = %d, want >= 1", got)
	}
}
