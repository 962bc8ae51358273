// Command perfbench is the repository's benchmark: three workloads that
// together exercise the paper pipeline, the hardware-prefetcher and obs
// reference path, and the profile service's ingest and plan watch, plus a
// traced run that times each layer from the benchmark's own calls.
//
// Usage (from the repository root, normally through run.py, which builds
// this package first):
//
//	perfbench --workload paper|arena-obs|ingest-watch --seed N --seconds S --trace 0|1
//	perfbench --workload W --record     re-record W's fingerprint and reference output
//	perfbench compare OLD.json NEW.json compare two reports from the same host
//
// The last line of standard output is the result object: correct,
// attempted, failed and the metrics. A human-readable report goes to
// standard error and a JSON report (with the host fingerprint) under --out.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run, written under --out.
type report struct {
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Passes   int               `json:"passes"`
	PassWall []float64         `json:"pass_wall_s,omitempty"`
	Result   result            `json:"result"`
	Latency  *latencySummary   `json:"op_latency,omitempty"`
	Extra    map[string]metric `json:"extra,omitempty"`
	Speedups []speedupLine     `json:"speedups,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

// config is a run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	record   bool
	// root is the repository checkout; out receives reports, traces and
	// the ingest workload's logs.
	root, out string
}

func (c config) benchDir() string { return filepath.Join(c.root, "perfbench") }

var workloadNames = []string{"paper", "arena-obs", "ingest-watch"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatalf("usage: perfbench compare OLD.json NEW.json")
		}
		if err := compareReports(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper, arena-obs or ingest-watch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "how long to measure; every run completes at least one pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer sweep instead of the end-to-end measurement")
	flag.BoolVar(&cfg.record, "record", false, "record the workload's fingerprint and reference output instead of checking them")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for reports, traces and scratch logs")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if flag.NArg() != 0 || seconds < 1 || (trace != 0 && trace != 1) || !known(cfg.workload) {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		fatalf("%s is not a repository checkout: %v", cfg.root, err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatalf("%v", err)
	}

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	rep.Host = hostFingerprint()
	printReport(os.Stderr, rep)
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	if err := writeJSON(filepath.Join(cfg.out, name), rep); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run dispatches to the workload, traced or not.
func run(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second), Trace: cfg.trace}
	var err error
	switch {
	case cfg.trace:
		err = runTraced(ctx, cfg, rep)
	case cfg.workload == "ingest-watch":
		err = runIngest(ctx, cfg, rep)
	default:
		err = runSim(ctx, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	r := &rep.Result
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return rep, nil
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setupReps is how many times a run repeats its set-up before the first
// pass and again after every pass.
const setupReps = 5

// setupSampler repeats a workload's set-up at points spread over the run
// and reports the median of every repetition. Set-up takes tens of
// milliseconds, so repetitions made back to back all see whatever the
// host's neighbours were doing in that moment; spreading them over the run
// makes the median the run's, not the moment's.
type setupSampler struct {
	fn func() (time.Duration, error)
	xs []float64
}

// sample repeats the set-up setupReps times.
func (s *setupSampler) sample() error {
	for i := 0; i < setupReps; i++ {
		d, err := s.fn()
		if err != nil {
			return err
		}
		s.xs = append(s.xs, seconds(d))
	}
	return nil
}

func (s *setupSampler) median() float64 { return median(s.xs) }

// measureLoop runs pass until the measuring time is spent, at least once,
// and returns the number of passes.
func measureLoop(d time.Duration, pass func() error) (int, error) {
	start := time.Now()
	n := 0
	for {
		if err := pass(); err != nil {
			return n, err
		}
		n++
		if time.Since(start) >= d {
			return n, nil
		}
	}
}

// runSim measures the paper or arena-obs workload.
func runSim(ctx context.Context, cfg config, rep *report) error {
	spec := simSpecFor(cfg.workload)
	warmPrograms(spec.roster)
	setup := setupSampler{fn: func() (time.Duration, error) { return simSetup(spec.roster) }}
	err := setup.sample()
	if err != nil {
		return err
	}
	var (
		walls, allocs []float64
		best          bestOps
		lat           passLatency
		tables        time.Duration
		last          *simPass
		ops           = newOpLog(nil, 0)
	)
	rep.Passes, err = measureLoop(cfg.seconds, func() error {
		p := runSimPass(ctx, spec, nil, 0)
		if err := checkSimOutput(cfg, spec, p); err != nil {
			return err
		}
		if err := best.add(p.ops.names, p.ops.lat); err != nil {
			return err
		}
		if last == nil || p.tables < tables {
			tables = p.tables
		}
		walls = append(walls, seconds(p.wall))
		allocs = append(allocs, float64(p.alloc)/1e6)
		lat.add(p.ops.lat)
		ops.merge(p.ops)
		last = p
		return setup.sample()
	})
	if err != nil {
		return err
	}
	var runs []measureRun
	if !spec.arenaObs {
		if runs, err = measureRuns(last, spec.roster); err != nil {
			return err
		}
	}
	if err := checkFingerprint(cfg, simFingerprint(last, runs), ops); err != nil {
		return err
	}

	lsum := best.summary()
	rep.Latency = &lsum
	rep.PassWall = walls
	speedups := speedupLines(last.edgeCheckSpeedups(), spec.roster)
	rep.Speedups = speedups
	wall := seconds(best.total() + tables)
	rep.Result.Metrics = e2eMetrics(wall, setup.median(), median(allocs), ops, lsum, speedups)
	instrs := last.cleanInstrs + last.refInstrs
	for _, key := range last.profileOrder {
		instrs += last.profiles[key].Stats.Stats.Instrs
	}
	perPass := lat.summary()
	rep.Extra = map[string]metric{
		"sim_minstrs_per_s":      {float64(instrs) / 1e6 / wall, "Minstr/s"},
		"tables_s":               {seconds(tables), "s"},
		"pass_wall_median_s":     {median(walls), "s"},
		"op_p50_pass_median_ms":  {perPass.P50, "ms"},
		"op_tail_pass_median_ms": {perPass.Tail, "ms"},
	}
	finishOps(rep, ops)
	return nil
}

func simSpecFor(workload string) simSpec {
	if workload == "arena-obs" {
		return simSpec{roster: arenaRoster, arenaObs: true}
	}
	return simSpec{roster: paperRoster()}
}

// paperRoster is the twelve benchmarks of Figure 15, read before anything
// else registers a workload.
func paperRoster() []string { return append([]string(nil), roster...) }

// checkSimOutput compares the pass's figure text with the reference and
// reconciles its obs reports. With --record it writes the arena-obs
// reference instead (the paper's reference is figures_output.txt, which
// the benchmark never writes).
func checkSimOutput(cfg config, spec simSpec, p *simPass) error {
	p.checkReconcile()
	path := filepath.Join(cfg.root, "figures_output.txt")
	if spec.arenaObs {
		path = filepath.Join(cfg.benchDir(), "testdata", "arena-obs.txt")
		if cfg.record {
			return os.WriteFile(path, p.text, 0o644)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if string(want) != string(p.text) {
		p.ops.check(fmt.Errorf("figure output differs from %s", filepath.Base(path)))
	} else {
		p.ops.check(nil)
	}
	return nil
}

// checkFingerprint compares fp with the recorded fingerprint of the
// workload, counting one check; with --record it records fp instead.
func checkFingerprint(cfg config, fp fingerprint, ops *opLog) error {
	path := filepath.Join(cfg.benchDir(), "testdata", "fingerprint.json")
	if cfg.record {
		return recordFingerprint(path, cfg.workload, fp)
	}
	all, err := loadFingerprints(path)
	if err != nil {
		return err
	}
	want, ok := all[cfg.workload]
	if !ok {
		return fmt.Errorf("%s has no fingerprint for %s; run with --record", path, cfg.workload)
	}
	if diff := diffFingerprints(want, fp); len(diff) > 0 {
		for i, d := range diff {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more fingerprint differences\n", len(diff)-5)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: fingerprint: %s\n", d)
		}
		ops.check(fmt.Errorf("simulated-statistics fingerprint differs in %d entries", len(diff)))
		return nil
	}
	ops.check(nil)
	return nil
}

func finishOps(rep *report, ops *opLog) {
	rep.Result.Attempted = ops.attempted
	rep.Result.Failed = ops.failed
	rep.Errors = ops.errs
}

// e2eMetrics assembles the end-to-end metrics every workload reports.
func e2eMetrics(wall, setup, allocMB float64, ops *opLog, lat latencySummary, speedups []speedupLine) map[string]metric {
	ok := 1.0
	if ops.attempted > 0 {
		ok = 1 - float64(ops.failed)/float64(ops.attempted)
	}
	avg, errAvg := speedupSummary(speedups)
	return map[string]metric{
		"wall_s":            {wall, "s"},
		"setup_s":           {setup, "s"},
		"alloc_mb":          {allocMB, "MB"},
		"ok_frac":           {ok, "frac"},
		"op_p50_ms":         {lat.P50, "ms"},
		"op_tail_ms":        {lat.Tail, "ms"},
		"sim_speedup_avg":   {avg, "x"},
		"paper_speedup_err": {errAvg, "x"},
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
