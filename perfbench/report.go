package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"stridepf/internal/workloads"
)

// roster is the paper's twelve benchmarks, captured at start-up before the
// ingest workload registers its drift kernel.
var roster = workloads.Names()

// paperSpeedups are the only reference results the repository holds: the
// paper's Figure 16 edge-check speedups as EXPERIMENTS.md quotes them.
var paperSpeedups = map[string]float64{
	"181.mcf":    1.59,
	"254.gap":    1.14,
	"197.parser": 1.08,
}

// paperSuiteAverage is the paper's suite-average edge-check speedup.
const paperSuiteAverage = 1.07

// speedupLine is one simulated speedup beside the paper's, when the paper
// gives one.
type speedupLine struct {
	Name  string   `json:"name"`
	Sim   float64  `json:"sim"`
	Paper *float64 `json:"paper,omitempty"`
	Err   *float64 `json:"err,omitempty"`
}

// speedupLines lists the roster's simulated edge-check speedups in roster
// order, with the paper's value and the absolute error where it has one,
// plus the suite average when the roster is the whole suite.
func speedupLines(sim map[string]float64, names []string) []speedupLine {
	var out []speedupLine
	sum := 0.0
	for _, n := range names {
		v, ok := sim[n]
		if !ok {
			continue
		}
		sum += v
		out = append(out, withPaper(speedupLine{Name: n, Sim: v}, paperSpeedups[n]))
	}
	if len(names) == len(roster) && len(out) == len(roster) {
		out = append(out, withPaper(speedupLine{Name: "suite average", Sim: sum / float64(len(out))}, paperSuiteAverage))
	}
	return out
}

func withPaper(l speedupLine, paper float64) speedupLine {
	if paper != 0 {
		e := math.Abs(l.Sim - paper)
		l.Paper, l.Err = &paper, &e
	}
	return l
}

// speedupSummary returns the mean simulated speedup over the workloads
// (the suite-average line excluded) and the mean absolute error over the
// lines the paper gives a value for.
func speedupSummary(lines []speedupLine) (avg, meanErr float64) {
	var n, ne int
	for _, l := range lines {
		if l.Name != "suite average" {
			avg += l.Sim
			n++
		}
		if l.Err != nil {
			meanErr += *l.Err
			ne++
		}
	}
	if n > 0 {
		avg /= float64(n)
	}
	if ne > 0 {
		meanErr /= float64(ne)
	}
	return avg, meanErr
}

// host identifies the machine a report was measured on. Reports from
// different hosts are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostFingerprint() host {
	return host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name; "unknown" where /proc/cpuinfo has
// none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable summary.
func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v passes=%d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Passes)
	fmt.Fprintf(w, "host: %s, nproc=%d, GOMAXPROCS=%d, %s %s/%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OS, h.Arch)
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.Result.Attempted, rep.Result.Failed)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	if l := rep.Latency; l != nil {
		fmt.Fprintf(w, "operation latency: p50 %.3f ms, p%g %.3f ms over %d samples\n", l.P50, l.TailPct, l.Tail, l.Samples)
	}
	printMetrics(w, "metrics", rep.Result.Metrics)
	printMetrics(w, "also measured", rep.Extra)
	if len(rep.Speedups) > 0 {
		fmt.Fprintln(w, "simulated edge-check speedups (Figure 16) beside the paper's:")
		for _, l := range rep.Speedups {
			if l.Paper != nil {
				fmt.Fprintf(w, "  %-14s %.3f  paper %.2f  error %.3f\n", l.Name, l.Sim, *l.Paper, *l.Err)
			} else {
				fmt.Fprintf(w, "  %-14s %.3f  (no paper value)\n", l.Name, l.Sim)
			}
		}
		_, e := speedupSummary(rep.Speedups)
		fmt.Fprintf(w, "  paper_speedup_err %.4f. These paper values are the only reference results\n", e)
		fmt.Fprintln(w, "  the repository holds; the model is otherwise unvalidated.")
	}
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// compareReports prints the metrics of two reports side by side. It
// refuses reports measured on different hosts: a difference between them
// says nothing about the code.
func compareReports(w io.Writer, oldPath, newPath string) error {
	var a, b report
	for _, x := range []struct {
		path string
		rep  *report
	}{{oldPath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rep); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare: host fingerprints differ (%+v vs %+v)", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare: %s trace=%v vs %s trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s on %s\n", a.Workload, a.Host.CPU)
	for _, k := range names {
		o, n := a.Result.Metrics[k], b.Result.Metrics[k]
		change := math.NaN()
		if o.Value != 0 {
			change = 100 * (n.Value - o.Value) / o.Value
		}
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %s (%+.2f%%)\n", k, o.Value, n.Value, o.Unit, change)
	}
	return nil
}
