package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"stridepf/internal/core"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
)

// ErrUnknownFigure is returned for a figure name the registry does not
// hold, and for a table request on a figure that only has a text form
// (Figure 15).
var ErrUnknownFigure = errors.New("unknown figure")

// figure is one entry of the figure registry: everything the session,
// RunAll, the experiments CLI and the strided daemon know about a figure.
type figure struct {
	// name is the `-figure` flag value and the /v1/figure/{name} key.
	name string
	// paper marks the paper's own figures, the ones `-figure all` and
	// RunAll render. The repo's additions (arena, paths) are opt-in by
	// name, so the paper output stays byte-identical without them.
	paper bool
	// text renders a figure that has no table form (Figure 15). A text
	// entry has no columns, rows or cell.
	text func(s *Session) string

	title     string
	columns   []string
	precision int
	// mean appends the per-column "average" row.
	mean bool
	// rows returns the row keys, which are also the row labels. A key
	// starts with the workload its cells measure, up to the first "|".
	rows func(s *Session) []string
	// cell computes the value at (row, column index) from the memoised
	// pipeline stages. The table loops over it serially; Warm runs the
	// same function on its worker pool.
	cell func(ctx context.Context, s *Session, row string, col int) (float64, error)
}

// figures is the registry, in presentation order: the paper's Figures
// 15-25, then the repo's opt-in additions.
var figures = []figure{
	{name: "15", paper: true, text: (*Session).Fig15},
	{
		name: "16", paper: true, mean: true,
		title:   "Figure 16: Speedup of stride prefetching (train profile, ref run)",
		columns: methodNames(), rows: sessionRows,
		cell: func(ctx context.Context, s *Session, row string, col int) (float64, error) {
			return s.trainSpeedup(ctx, row, PaperMethods()[col])
		},
	},
	{
		name: "17", paper: true, mean: true,
		title:   "Figure 17: Percentage of in-loop and out-loop load references (ref input)",
		columns: []string{"in-loop%", "out-loop%"}, precision: 1, rows: sessionRows,
		cell: loopShareCell,
	},
	distFigure("18", "Figure 18: Distribution of out-loop loads by stride properties (% of load refs)",
		func(cb *classBuckets) map[prefetch.Class]uint64 { return cb.outLoop }),
	distFigure("19", "Figure 19: Distribution of in-loop loads by stride properties (% of load refs)",
		func(cb *classBuckets) map[prefetch.Class]uint64 { return cb.inLoop }),
	{
		name: "20", paper: true, mean: true,
		title:   "Figure 20: Profiling overhead over edge profiling alone (train input)",
		columns: methodNames(), rows: sessionRows,
		cell: func(ctx context.Context, s *Session, row string, col int) (float64, error) {
			return s.overheadCell(ctx, row, PaperMethods()[col])
		},
	},
	rateFigure("21", "Figure 21: % of load references processed in strideProf (after sampling)",
		func(pr *core.ProfileRun) float64 { return float64(pr.ProcessedRefs) }),
	rateFigure("22", "Figure 22: % of load references processed by LFU",
		func(pr *core.ProfileRun) float64 { return float64(pr.LFUCalls) }),
	sensitivityFigure("23", "Figure 23: Performance of train and ref profiles (sample-edge-check)", "ref",
		func(train, ref *profile.Combined) *profile.Combined { return ref }),
	sensitivityFigure("24", "Figure 24: Performance of train and edge.ref-stride.train", "edge.ref-stride.train",
		func(train, ref *profile.Combined) *profile.Combined {
			return &profile.Combined{Edge: ref.Edge, Stride: train.Stride}
		}),
	sensitivityFigure("25", "Figure 25: Performance of train and edge.train-stride.ref", "edge.train-stride.ref",
		func(train, ref *profile.Combined) *profile.Combined {
			return &profile.Combined{Edge: train.Edge, Stride: ref.Stride}
		}),
	{
		name:    "arena",
		title:   "Prefetcher arena: hardware scheme x workload x cache config (clean binary, ref input)",
		columns: []string{"speedup", "accuracy", "coverage", "timeliness"},
		rows:    arenaRows,
		cell:    arenaValue,
	},
	{
		name:  "paths",
		title: "Path-sensitive stride discovery: profiling cost and PMST path-splitting (paths vs edge-check)",
		columns: []string{
			"overhead-paths", "overhead-edge-check", "pmst", "split", "path-ssst",
			"speedup-split", "speedup-plain", "cover-split", "cover-plain", "ssst-share",
		},
		rows: (*Session).pathsNames,
		cell: pathsValue,
	},
}

// FigureNames lists the paper's figures in presentation order: the ones
// `-figure all` and RunAll render. "15" is preformatted text (see Fig15);
// the rest are tables.
func FigureNames() []string {
	var names []string
	for _, f := range figures {
		if f.paper {
			names = append(names, f.name)
		}
	}
	return names
}

// AllFigureNames lists every registered figure in presentation order: the
// paper's figures, then the opt-in additions reachable only by name.
func AllFigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

func lookupFigure(name string) (*figure, error) {
	for i := range figures {
		if figures[i].name == name {
			return &figures[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: %w %q (have %s)", ErrUnknownFigure, name,
		strings.Join(AllFigureNames(), ", "))
}

// rowWorkload returns the workload a row key measures.
func rowWorkload(row string) string {
	w, _, _ := strings.Cut(row, "|")
	return w
}

// selectFigures resolves names to registry entries, skipping unknown
// names; no names selects the paper figures.
func selectFigures(names []string) []*figure {
	var sel []*figure
	if len(names) == 0 {
		for i := range figures {
			if figures[i].paper {
				sel = append(sel, &figures[i])
			}
		}
		return sel
	}
	for _, n := range names {
		if f, err := lookupFigure(n); err == nil {
			sel = append(sel, f)
		}
	}
	return sel
}

// table assembles the figure serially, one cell at a time in row-major
// order, so its bytes do not depend on whether or how the session was
// warmed.
func (f *figure) table(ctx context.Context, s *Session) (*Table, error) {
	t := &Table{Title: f.title, Columns: append([]string(nil), f.columns...), Precision: f.precision}
	for _, row := range f.rows(s) {
		vals := make([]float64, len(f.columns))
		for col := range vals {
			v, err := f.cell(ctx, s, row, col)
			if err != nil {
				return nil, err
			}
			vals[col] = v
		}
		t.AddRow(row, vals...)
	}
	if f.mean {
		t.Mean()
	}
	return t, nil
}

// Figure computes the named figure's table, the string-keyed entry point
// the experiments CLI and the strided daemon share. Figure 15 has no
// tabular form (use FigureText); asking for its table, or for a name not
// in the registry, returns an error wrapping ErrUnknownFigure.
func (s *Session) Figure(ctx context.Context, name string) (*Table, error) {
	f, err := lookupFigure(name)
	if err != nil {
		return nil, err
	}
	if f.cell == nil {
		return nil, fmt.Errorf("experiments: %w %q as a table: it is text only", ErrUnknownFigure, name)
	}
	return f.table(ctx, s)
}

// FigureText returns the exact bytes the experiments CLI writes for
// `-figure name`: the figure's aligned text table followed by a trailing
// newline, or its CSV form when csv is set. Figure 15, which has no CSV
// form, always returns its text listing. Serving figures over HTTP goes
// through this function so daemon responses stay byte-identical to the
// CLI's files.
func (s *Session) FigureText(ctx context.Context, name string, csv bool) (string, error) {
	f, err := lookupFigure(name)
	if err != nil {
		return "", err
	}
	if f.text != nil {
		return f.text(s) + "\n", nil
	}
	t, err := f.table(ctx, s)
	if err != nil {
		return "", err
	}
	if csv {
		return t.CSV(), nil
	}
	return t.String() + "\n", nil
}

// RunAll renders every paper figure to w, in order. Unless cfg.Jobs pins
// the session to one worker, the cells are precomputed in parallel first;
// the tables are then assembled serially from the memoised cells, so the
// output is byte-identical to a serial run.
func RunAll(ctx context.Context, w io.Writer, cfg Config) error {
	return NewSession(cfg).runAll(ctx, w)
}

func (s *Session) runAll(ctx context.Context, w io.Writer) error {
	if jobs := s.cfg.jobs(); jobs != 1 {
		s.Warm(ctx, jobs)
	}
	for _, f := range selectFigures(nil) {
		text, err := s.FigureText(ctx, f.name, false)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, text); err != nil {
			return err
		}
	}
	return nil
}
