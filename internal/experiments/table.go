// Package experiments reproduces every evaluation figure of the paper
// (Figures 15 through 25) on the synthetic SPECINT2000 workloads: speedups
// per profiling method, in-loop/out-loop reference mixes, stride-class
// distributions, profiling overheads, strideProf/LFU processing rates, and
// the train/ref input-sensitivity studies, plus the opt-in prefetcher-arena
// and path-profiling figures. Each figure is one entry of the registry in
// figure.go; a Session memoises the pipeline stages its cells read.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a simple named-rows/named-columns result container with a text
// renderer; every figure harness returns one.
type Table struct {
	// Title names the figure ("Figure 16: Speedup of stride prefetching").
	Title string
	// Columns are the value-column headers.
	Columns []string
	// Rows hold one label and one value per column.
	Rows []Row
	// Precision is the number of decimals when rendering (default 3).
	Precision int
}

// Row is one table row.
type Row struct {
	// Name labels the row (usually a benchmark name).
	Name string
	// Values holds one value per column; NaN renders as "-".
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// Mean appends a row holding the per-column arithmetic mean of all current
// rows, labelled "average".
func (t *Table) Mean() {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows)
	avg := make([]float64, len(t.Columns))
	for _, r := range t.Rows {
		for i, v := range r.Values {
			if i < len(avg) {
				avg[i] += v
			}
		}
	}
	for i := range avg {
		avg[i] /= float64(n)
	}
	t.AddRow("average", avg...)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	prec := t.Precision
	if prec == 0 {
		prec = 3
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')

	nameW := len("benchmark")
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(t.Columns))
		for ci := range t.Columns {
			s := "-"
			if ci < len(r.Values) && r.Values[ci] == r.Values[ci] { // not NaN
				s = fmt.Sprintf("%.*f", prec, r.Values[ci])
			}
			cells[ri][ci] = s
			if len(s) > colW[ci] {
				colW[ci] = len(s)
			}
		}
	}

	fmt.Fprintf(&sb, "%-*s", nameW, "benchmark")
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "  %*s", colW[i], c)
	}
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat("-", nameW))
	for i := range t.Columns {
		sb.WriteString("  " + strings.Repeat("-", colW[i]))
	}
	sb.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", nameW, r.Name)
		for ci := range t.Columns {
			fmt.Fprintf(&sb, "  %*s", colW[ci], cells[ri][ci])
		}
		sb.WriteByte('\n')
		_ = ri
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row (for
// plotting pipelines). NaN cells render empty.
func (t *Table) CSV() string {
	var sb strings.Builder
	prec := t.Precision
	if prec == 0 {
		prec = 3
	}
	sb.WriteString("benchmark")
	for _, c := range t.Columns {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(c))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		sb.WriteString(csvEscape(r.Name))
		for i := range t.Columns {
			sb.WriteByte(',')
			if i < len(r.Values) && r.Values[i] == r.Values[i] {
				fmt.Fprintf(&sb, "%.*f", prec, r.Values[i])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}
