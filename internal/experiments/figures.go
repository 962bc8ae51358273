package experiments

import (
	"context"
	"fmt"
	"math"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
)

// Fig15 reproduces Figure 15: the benchmark roster. It returns the listing
// as preformatted text since the table is non-numeric.
func (s *Session) Fig15() string {
	out := "Figure 15: SPECINT2000 benchmarks (synthetic reproductions)\n"
	for _, name := range s.cfg.names() {
		w, err := s.workload(name)
		if err != nil {
			continue
		}
		out += fmt.Sprintf("%-13s %s\n", name, w.Description())
	}
	return out
}

// sessionRows is the paper figures' row order: the session's workloads.
func sessionRows(s *Session) []string { return s.cfg.names() }

// methodNames is the column header of the per-method figures (16, 20-22).
func methodNames() []string {
	var names []string
	for _, m := range PaperMethods() {
		names = append(names, m.Name)
	}
	return names
}

// trainSpeedup is a Figure 16 cell: the ref-input speedup of the binary
// built from method m's train profile, memoised under "<method>-train".
// The train column of Figures 23-25 is the sample-edge-check cell.
func (s *Session) trainSpeedup(ctx context.Context, wname string, m MethodSpec) (float64, error) {
	w, err := s.workload(wname)
	if err != nil {
		return 0, err
	}
	pr, err := s.Profile(ctx, wname, m, w.Train())
	if err != nil {
		return 0, err
	}
	e, err := s.Speedup(ctx, wname, m.Name+"-train", pr.Profiles, w.Ref())
	if err != nil {
		return 0, err
	}
	return e.speedup, nil
}

// loopShareCell is a Figure 17 cell: the percentage of the ref run's
// dynamic program load references from in-loop (column 0) or out-loop
// (column 1) loads.
func loopShareCell(ctx context.Context, s *Session, wname string, col int) (float64, error) {
	w, err := s.workload(wname)
	if err != nil {
		return 0, err
	}
	run, err := s.Clean(ctx, wname, w.Ref())
	if err != nil {
		return 0, err
	}
	var total, inLoop uint64
	for key, il := range core.OriginalLoadKeys(w.Program()) {
		c := run.LoadCounts[key]
		total += c
		if il {
			inLoop += c
		}
	}
	if total == 0 {
		return math.NaN(), nil
	}
	inPct := 100 * float64(inLoop) / float64(total)
	if col == 0 {
		return inPct, nil
	}
	return 100 - inPct, nil
}

// classifyAll classifies every load profiled by a naive-all train run and
// returns, per stride class, the dynamic load references attributed to it,
// split by in-loop/out-loop. The weights are the profiling run's exact
// per-load reference counts; the denominator is the program's total load
// references.
type classBuckets struct {
	total   uint64
	inLoop  map[prefetch.Class]uint64
	outLoop map[prefetch.Class]uint64
}

// classify memoises classifyCompute per workload (Figures 18 and 19 both
// consume it).
func (s *Session) classify(ctx context.Context, name string) (*classBuckets, error) {
	return memo(ctx, s, "classify|"+name, func() (*classBuckets, error) {
		return s.classifyCompute(ctx, name)
	})
}

func (s *Session) classifyCompute(ctx context.Context, name string) (*classBuckets, error) {
	w, err := s.workload(name)
	if err != nil {
		return nil, err
	}
	m := MethodSpec{Name: instrument.NaiveAll.String(), Opts: instrument.Options{Method: instrument.NaiveAll}}
	pr, err := s.Profile(ctx, name, m, w.Train())
	if err != nil {
		return nil, err
	}
	th := s.cfg.Prefetch.Thresholds
	if th == (prefetch.Thresholds{}) {
		th = prefetch.DefaultThresholds()
	}

	cb := &classBuckets{
		total:   pr.ProgramLoadRefs,
		inLoop:  make(map[prefetch.Class]uint64),
		outLoop: make(map[prefetch.Class]uint64),
	}
	prog := w.Program()
	for fname, f := range prog.Funcs {
		li := core.Loops(prog, fname)
		f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
			if in.Op != ir.OpLoad {
				return
			}
			key := machine.LoadKey{Func: fname, ID: in.ID}
			refs := pr.Stats.LoadCounts[key]
			if refs == 0 {
				return
			}
			sum, ok := pr.Profiles.Stride.Lookup(key)
			inLoop := li.InLoop(b)
			class := prefetch.None
			if ok {
				freq := pr.Profiles.Edge.BlockFreq(fname, b)
				trip := math.Inf(1)
				if l := li.InnermostLoop(b); l != nil {
					trip = pr.Profiles.Edge.TripCount(fname, l)
				}
				class = prefetch.Classify(sum, freq, trip, inLoop, th).Class
			}
			if inLoop {
				cb.inLoop[class] += refs
			} else {
				cb.outLoop[class] += refs
			}
		})
	}
	return cb, nil
}

// classColumns is the presentation order of Figures 18/19.
var classColumns = []prefetch.Class{prefetch.SSST, prefetch.PMST, prefetch.WSST, prefetch.None}

// distFigure declares Figure 18 or 19: per stride class, the share of all
// load references that the naive-all train profile attributes to the
// loads bucket selects (out-loop or in-loop).
func distFigure(name, title string, bucket func(*classBuckets) map[prefetch.Class]uint64) figure {
	var cols []string
	for _, c := range classColumns {
		cols = append(cols, c.String())
	}
	return figure{
		name: name, paper: true, mean: true,
		title: title, columns: cols, precision: 1, rows: sessionRows,
		cell: func(ctx context.Context, s *Session, row string, col int) (float64, error) {
			cb, err := s.classify(ctx, row)
			if err != nil {
				return 0, err
			}
			if cb.total == 0 {
				return math.NaN(), nil
			}
			return 100 * float64(bucket(cb)[classColumns[col]]) / float64(cb.total), nil
		},
	}
}

// edgeOnlySpec is the overhead baseline: frequency profiling alone.
var edgeOnlySpec = MethodSpec{Name: instrument.EdgeOnly.String(), Opts: instrument.Options{Method: instrument.EdgeOnly}}

// overhead is Figure 20's formula: the train-run cycles of a profiling
// method over those of edge-frequency profiling alone,
// (cycles(method) - cycles(edge-only)) / cycles(edge-only).
func overhead(pr, base *core.ProfileRun) float64 {
	return (float64(pr.Stats.Stats.Cycles) - float64(base.Stats.Stats.Cycles)) /
		float64(base.Stats.Stats.Cycles)
}

// overheadCell is a Figure 20 cell: method m's profiling overhead on the
// workload's train input.
func (s *Session) overheadCell(ctx context.Context, wname string, m MethodSpec) (float64, error) {
	w, err := s.workload(wname)
	if err != nil {
		return 0, err
	}
	base, err := s.Profile(ctx, wname, edgeOnlySpec, w.Train())
	if err != nil {
		return 0, err
	}
	pr, err := s.Profile(ctx, wname, m, w.Train())
	if err != nil {
		return 0, err
	}
	return overhead(pr, base), nil
}

// rateFigure declares Figure 21 or 22: per method, the percentage of the
// train run's program load references counted by num (those processed by
// strideProf after sampling, or by the LFU routine).
func rateFigure(name, title string, num func(*core.ProfileRun) float64) figure {
	return figure{
		name: name, paper: true, mean: true,
		title: title, columns: methodNames(), precision: 1, rows: sessionRows,
		cell: func(ctx context.Context, s *Session, row string, col int) (float64, error) {
			w, err := s.workload(row)
			if err != nil {
				return 0, err
			}
			pr, err := s.Profile(ctx, row, PaperMethods()[col], w.Train())
			if err != nil {
				return 0, err
			}
			if pr.ProgramLoadRefs == 0 {
				return math.NaN(), nil
			}
			return 100 * num(pr) / float64(pr.ProgramLoadRefs), nil
		},
	}
}

// sampleEdgeCheck is the method the input-sensitivity study uses (the
// paper's recommended production configuration).
func sampleEdgeCheck() MethodSpec {
	return MethodSpec{
		Name: "sample-" + instrument.EdgeCheck.String(),
		Opts: instrument.Options{Method: instrument.EdgeCheck, Stride: sampledConfig()},
	}
}

// sensitivityFigure declares one of the input-sensitivity studies
// (Figures 23-25): the ref-input speedup of the sample-edge-check train
// profile (column "train", Figure 16's cell) against that of the profile
// mix builds from the train and ref profiles (column col). The mixed
// column is memoised under the label title+col.
func sensitivityFigure(name, title, col string, mix func(train, ref *profile.Combined) *profile.Combined) figure {
	return figure{
		name: name, paper: true, mean: true,
		title: title, columns: []string{"train", col}, rows: sessionRows,
		cell: func(ctx context.Context, s *Session, row string, c int) (float64, error) {
			m := sampleEdgeCheck()
			if c == 0 {
				return s.trainSpeedup(ctx, row, m)
			}
			w, err := s.workload(row)
			if err != nil {
				return 0, err
			}
			train, err := s.Profile(ctx, row, m, w.Train())
			if err != nil {
				return 0, err
			}
			ref, err := s.Profile(ctx, row, m, w.Ref())
			if err != nil {
				return 0, err
			}
			e, err := s.Speedup(ctx, row, title+col, mix(train.Profiles, ref.Profiles), w.Ref())
			if err != nil {
				return 0, err
			}
			return e.speedup, nil
		},
	}
}
