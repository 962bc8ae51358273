package main

import (
	"strings"
	"testing"
)

// TestErrorsCarryOnePrefix: a bad figure or workload name exits 1 with the
// library's "experiments:" error printed once, not doubled by the command.
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "99", "-j", "1"}, "experiments: unknown figure"},
		{[]string{"-workloads", "999.bogus", "-j", "1"}, "experiments: unknown workload"},
		{[]string{"-figure", "all", "-csv"}, "experiments: -csv requires a single -figure"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit status %d, want 1", tc.args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, tc.want) || strings.Count(msg, "experiments:") != 1 {
			t.Errorf("%v: stderr = %q, want one prefix, starting %q", tc.args, msg, tc.want)
		}
	}
}

// TestFigureToStdout: a single figure on one workload is written to stdout
// and nothing to stderr.
func TestFigureToStdout(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-figure", "16", "-workloads", "197.parser", "-j", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "197.parser") || stderr.Len() != 0 {
		t.Errorf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
