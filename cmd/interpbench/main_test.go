package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchReport is a one-benchmark report recorded on the given CPU.
func benchReport(cpu string, nsPerOp float64) *Report {
	return &Report{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: cpu,
		Results: []Result{{Name: "BenchmarkInterpreterALU", NsPerOp: nsPerOp}},
	}
}

func writeBaseline(t *testing.T, rep *Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareSameHostGates: on the baseline's host a >10% ns/op increase
// fails the comparison and a smaller one passes.
func TestCompareSameHostGates(t *testing.T) {
	base := writeBaseline(t, benchReport("cpu-a", 100))
	for _, tc := range []struct {
		ns   float64
		want bool
	}{{111, true}, {109, false}, {60, false}} {
		var out bytes.Buffer
		regressed, err := compareReports(&out, base, benchReport("cpu-a", tc.ns))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.want {
			t.Errorf("100 -> %v ns/op: regressed=%v, want %v\n%s", tc.ns, regressed, tc.want, out.String())
		}
	}
}

// TestCompareOtherHostNoVerdict: a baseline from another host never fails
// the comparison, however large the delta, and the output names every
// differing host field.
func TestCompareOtherHostNoVerdict(t *testing.T) {
	old := benchReport("cpu-a", 100)
	old.GoVersion = "go1.22.0"
	base := writeBaseline(t, old)
	var out bytes.Buffer
	regressed, err := compareReports(&out, base, benchReport("cpu-b", 300))
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("cross-host comparison gave a regression verdict:\n%s", out.String())
	}
	for _, want := range []string{"no verdict", `cpu: "cpu-a" -> "cpu-b"`, `go_version: "go1.22.0" -> "go1.24.0"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "goos") || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output names an unchanged field or a verdict:\n%s", out.String())
	}
}
