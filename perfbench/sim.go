package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

// simSpec is one simulator workload: which benchmarks it runs and whether
// it is the paper's figure set or the hwpf/obs reference-loop mix.
type simSpec struct {
	roster []string
	// arenaObs selects Figure 16 with an obs registry attached plus the
	// prefetcher arena; otherwise the pass is the paper's figures 15-25.
	arenaObs bool
}

// arenaRoster is the arena-obs workload's roster: the pointer-chasing
// benchmark where prefetching pays most and a strided one where it pays
// little, the pair the arena figure's reference-loop cost is usually quoted on.
var arenaRoster = []string{"181.mcf", "197.parser"}

// opLog times the stage calls of a pass: one latency sample per call, a
// failure count, and per-stage totals. In the traced run every call is
// also a span under parent.
type opLog struct {
	tr        *Tracer
	parent    uint64
	names     []string
	lat       []time.Duration
	attempted int
	failed    int
	errs      []string
	stage     map[string]time.Duration
}

func newOpLog(tr *Tracer, parent uint64) *opLog {
	return &opLog{tr: tr, parent: parent, stage: make(map[string]time.Duration)}
}

// do runs one stage call under the span name and records its outcome.
func (o *opLog) do(name string, fn func() error) bool {
	_, end := o.tr.Start(name, o.parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	end()
	o.names = append(o.names, name)
	o.lat = append(o.lat, d)
	o.attempted++
	o.stage[name] += d
	if err != nil {
		o.fail(fmt.Errorf("%s: %w", name, err))
		return false
	}
	return true
}

// check counts one output check, failing it when err is non-nil.
func (o *opLog) check(err error) {
	o.attempted++
	if err != nil {
		o.fail(err)
	}
}

func (o *opLog) fail(err error) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, err.Error())
	}
}

// merge folds another log's counts into o.
func (o *opLog) merge(other *opLog) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, e := range other.errs {
		if len(o.errs) < 20 {
			o.errs = append(o.errs, e)
		}
	}
}

// simPass is the outcome of one pass of a simulator workload.
type simPass struct {
	session  *experiments.Session
	registry *obs.Registry
	ops      *opLog
	// text is the figure output the pass assembled.
	text  []byte
	fig16 *experiments.Table
	// profiles and cleans hold the stage results by "workload|method|input"
	// and workload, for the fingerprint and the layer metrics.
	profiles     map[string]*core.ProfileRun
	profileOrder []string
	cleans       map[string]core.RunStats
	arena        map[string]*experiments.ArenaCell
	arenaOrder   []string
	// cleanInstrs/cleanTime cover the clean (fused-loop) runs; refInstrs/
	// refTime the arena cells, which run the reference loop.
	cleanInstrs, refInstrs uint64
	cleanTime, refTime     time.Duration
	// tables is the time to assemble the figures from the warmed session.
	wall, tables time.Duration
	alloc        uint64
}

// edgeOnlySpec and sampleEdgeCheck are the two profiling configurations
// RunAll uses beyond PaperMethods (Figure 20's baseline and the input-
// sensitivity study's method); their names must equal the session's so
// the stage calls fill the memo entries the figures read.
var (
	edgeOnlySpec    = experiments.MethodSpec{Name: instrument.EdgeOnly.String(), Opts: instrument.Options{Method: instrument.EdgeOnly}}
	sampleEdgeCheck = func() experiments.MethodSpec {
		for _, m := range experiments.PaperMethods() {
			if m.Name == "sample-"+instrument.EdgeCheck.String() {
				return m
			}
		}
		panic("perfbench: PaperMethods lost sample-edge-check")
	}()
)

// sensitivity lists Figures 23-25 as RunAll computes them: the memo label
// of each column is the figure title followed by the column name, and mix
// builds the column's profile from the train and ref profiles.
var sensitivity = []struct {
	title string
	cols  []string
	mix   func(train, ref *profile.Combined) []*profile.Combined
}{
	{"Figure 23: Performance of train and ref profiles (sample-edge-check)", []string{"train", "ref"},
		func(t, r *profile.Combined) []*profile.Combined { return []*profile.Combined{t, r} }},
	{"Figure 24: Performance of train and edge.ref-stride.train", []string{"train", "edge.ref-stride.train"},
		func(t, r *profile.Combined) []*profile.Combined {
			return []*profile.Combined{t, {Edge: r.Edge, Stride: t.Stride}}
		}},
	{"Figure 25: Performance of train and edge.train-stride.ref", []string{"train", "edge.train-stride.ref"},
		func(t, r *profile.Combined) []*profile.Combined {
			return []*profile.Combined{t, {Edge: t.Edge, Stride: r.Stride}}
		}},
}

// runSimPass runs one pass of a simulator workload in a fresh session with
// one worker: every pipeline cell as an explicit stage call in the order
// RunAll's figures request them, then RunAll's table assembly on the warmed
// session. The assembled text is what RunAll writes; the caller checks it.
func runSimPass(ctx context.Context, spec simSpec, tr *Tracer, parent uint64) *simPass {
	p := newSimPass(spec, tr, parent)
	allocs0 := heapAllocs()
	t0 := time.Now()
	p.fig16Cells(ctx, spec.roster)
	if spec.arenaObs {
		p.arenaCells(ctx, spec.roster)
	} else {
		p.paperCells(ctx, spec.roster)
	}

	_, end := tr.Start("experiments.tables", parent)
	t1 := time.Now()
	p.assemble(ctx, spec)
	p.tables = time.Since(t1)
	end()
	p.wall = time.Since(t0)
	p.alloc = heapAllocs() - allocs0
	return p
}

// newSimPass returns a pass over a fresh one-worker session, with an obs
// registry attached for the arena-obs workload.
func newSimPass(spec simSpec, tr *Tracer, parent uint64) *simPass {
	cfg := experiments.Config{Workloads: spec.roster, Jobs: 1}
	p := &simPass{
		ops:      newOpLog(tr, parent),
		profiles: make(map[string]*core.ProfileRun),
		cleans:   make(map[string]core.RunStats),
		arena:    make(map[string]*experiments.ArenaCell),
	}
	if spec.arenaObs {
		p.registry = obs.NewRegistry()
		cfg.Metrics = p.registry
	}
	p.session = experiments.NewSession(cfg)
	return p
}

func (p *simPass) profile(ctx context.Context, w string, m experiments.MethodSpec, in core.Input) *core.ProfileRun {
	var pr *core.ProfileRun
	key := w + "|" + m.Name + "|" + in.Name
	if cached, ok := p.profiles[key]; ok {
		return cached
	}
	if !p.ops.do("experiments.profile", func() (err error) {
		pr, err = p.session.Profile(ctx, w, m, in)
		return err
	}) {
		return nil
	}
	p.profiles[key] = pr
	p.profileOrder = append(p.profileOrder, key)
	return pr
}

func (p *simPass) clean(ctx context.Context, w string, in core.Input) {
	var st core.RunStats
	t0 := time.Now()
	if p.ops.do("experiments.clean", func() (err error) {
		st, err = p.session.Clean(ctx, w, in)
		return err
	}) {
		p.cleanTime += time.Since(t0)
		p.cleanInstrs += st.Stats.Instrs
		p.cleans[w] = st
	}
}

func (p *simPass) speedup(ctx context.Context, w, label string, prof *profile.Combined, in core.Input) {
	p.ops.do("experiments.speedup", func() error {
		_, err := p.session.Speedup(ctx, w, label, prof, in)
		return err
	})
}

// fig16Cells are Figure 16's cells: per workload the clean ref run, then
// per method the train profile and the ref speedup it buys.
func (p *simPass) fig16Cells(ctx context.Context, roster []string) {
	for _, w := range roster {
		wl := workloads.Get(w)
		p.clean(ctx, w, wl.Ref())
		for _, m := range experiments.PaperMethods() {
			if pr := p.profile(ctx, w, m, wl.Train()); pr != nil {
				p.speedup(ctx, w, m.Name+"-train", pr.Profiles, wl.Ref())
			}
		}
	}
}

// paperCells are the cells Figures 17-25 add to Figure 16's: 17-19, 21
// and 22 reuse them, 20 adds the edge-only baseline, and 23-25 add the
// sampled ref profile and the input-sensitivity speedups.
func (p *simPass) paperCells(ctx context.Context, roster []string) {
	for _, w := range roster {
		p.profile(ctx, w, edgeOnlySpec, workloads.Get(w).Train())
	}
	for _, fig := range sensitivity {
		for _, w := range roster {
			wl := workloads.Get(w)
			train := p.profile(ctx, w, sampleEdgeCheck, wl.Train())
			ref := p.profile(ctx, w, sampleEdgeCheck, wl.Ref())
			if train == nil || ref == nil {
				continue
			}
			for i, prof := range fig.mix(train.Profiles, ref.Profiles) {
				p.speedup(ctx, w, fig.title+fig.cols[i], prof, wl.Ref())
			}
		}
	}
}

// arenaCells are the arena figure's cells: every registered scheme on
// every arena cache configuration, each run on the reference loop with an
// obs collector.
func (p *simPass) arenaCells(ctx context.Context, roster []string) {
	for _, w := range roster {
		for _, h := range experiments.ArenaHierarchies() {
			for _, scheme := range hwpf.Schemes() {
				var cell *experiments.ArenaCell
				t0 := time.Now()
				if p.ops.do("experiments.arena", func() (err error) {
					cell, err = p.session.ArenaCell(ctx, w, h.Name, scheme)
					return err
				}) {
					p.refTime += time.Since(t0)
					p.refInstrs += cell.Run.Stats.Instrs
					key := w + "|" + h.Name + "|" + scheme
					p.arena[key] = cell
					p.arenaOrder = append(p.arenaOrder, key)
				}
			}
		}
	}
}

// assemble builds the figure text from the warmed session. For the paper
// workload this is RunAll's own sequence (Figure 15, then every paper
// figure, each followed by a newline); for arena-obs it is Figure 16 then
// the arena table.
func (p *simPass) assemble(ctx context.Context, spec simSpec) {
	var buf bytes.Buffer
	names := []string{"16", "arena"}
	if !spec.arenaObs {
		fmt.Fprintln(&buf, p.session.Fig15())
		names = experiments.FigureNames()[1:]
	}
	for _, name := range names {
		t, err := p.session.Figure(ctx, name)
		if err != nil {
			p.ops.check(fmt.Errorf("figure %s: %w", name, err))
			continue
		}
		if name == "16" {
			p.fig16 = t
		}
		fmt.Fprintln(&buf, t)
	}
	p.text = buf.Bytes()
}

// checkReconcile verifies every obs report of the pass: each class and the
// totals must account every issued prefetch to exactly one outcome.
func (p *simPass) checkReconcile() {
	if p.registry == nil {
		return
	}
	for _, r := range p.registry.Reports() {
		err := error(nil)
		if r.ReconcileError != "" {
			err = fmt.Errorf("obs report %s: %s", r.Run, r.ReconcileError)
		}
		classes := map[string]obs.ClassReport{"totals": r.Totals}
		for k, v := range r.Classes {
			classes[k] = v
		}
		for name, c := range classes {
			if c.Issued != c.Useful+c.Late+c.EvictedUnused+c.ResidentUnused+c.InFlightEnd {
				err = fmt.Errorf("obs report %s class %s: issued %d != useful %d + late %d + evicted-unused %d + resident-unused %d + in-flight %d",
					r.Run, name, c.Issued, c.Useful, c.Late, c.EvictedUnused, c.ResidentUnused, c.InFlightEnd)
			}
		}
		p.ops.check(err)
	}
}

// edgeCheckSpeedups returns Figure 16's edge-check column by workload.
func (p *simPass) edgeCheckSpeedups() map[string]float64 {
	out := make(map[string]float64)
	if p.fig16 == nil {
		return out
	}
	for _, r := range p.fig16.Rows {
		if r.Name != "average" && len(r.Values) > 0 {
			out[r.Name] = r.Values[0]
		}
	}
	return out
}

// simSetup is the simulator workloads' set-up: install every roster
// program's train and ref inputs into fresh machines. The programs are
// built (and CFG-analysed) by warmPrograms before the first repetition.
func simSetup(roster []string) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	for _, name := range roster {
		w := workloads.Get(name)
		for _, in := range []core.Input{w.Train(), w.Ref()} {
			m, err := machine.New(w.Program())
			if err != nil {
				return 0, fmt.Errorf("setup %s/%s: %w", name, in.Name, err)
			}
			w.Setup(m, in)
		}
	}
	return time.Since(t0), nil
}

// warmPrograms builds and analyses every roster program once, the part of
// set-up a process pays only on first use.
func warmPrograms(roster []string) time.Duration {
	t0 := time.Now()
	for _, name := range roster {
		core.EnsureAnalyzed(workloads.Get(name).Program())
	}
	return time.Since(t0)
}
