package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"stridepf/internal/core"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/workloads"
)

// fingerprint is a workload's exact simulated statistics, one line per
// cell. Host speed cannot move any of it, so a run whose fingerprint
// differs from the recorded one ran a different model, and fails.
type fingerprint map[string]string

func (fp fingerprint) add(key, format string, args ...any) {
	fp[key] = fmt.Sprintf(format, args...)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func runStatsLine(st core.RunStats) string {
	return fmt.Sprintf("instrs=%d cycles=%d loads=%d stores=%d prefetches=%d hooks=%d demand_miss_cycles=%d pf_useful=%d pf_late=%d pf_drops=%d ret=%d",
		st.Stats.Instrs, st.Stats.Cycles, st.Stats.LoadRefs, st.Stats.StoreRefs, st.Stats.PrefetchRefs, st.Stats.HookCalls,
		st.DemandMissCycles, st.PrefetchUseful, st.PrefetchLate, st.PrefetchDrops, st.Ret)
}

// simFingerprint covers every profile and clean cell of the pass, every
// Figure 16 speedup, the arena cells and obs reports when present, and
// the measure runs' per-level cache counts.
func simFingerprint(p *simPass, runs []measureRun) fingerprint {
	fp := make(fingerprint)
	for _, key := range p.profileOrder {
		pr := p.profiles[key]
		fp.add("profile|"+key, "%s lfu_calls=%d processed_refs=%d program_load_refs=%d",
			runStatsLine(pr.Stats), pr.LFUCalls, pr.ProcessedRefs, pr.ProgramLoadRefs)
	}
	for w, st := range p.cleans {
		fp.add("clean|"+w+"|ref", "%s", runStatsLine(st))
	}
	if p.fig16 != nil {
		for _, r := range p.fig16.Rows {
			for j, v := range r.Values {
				fp.add("fig16|"+r.Name+"|"+p.fig16.Columns[j], "%s", ftoa(v))
			}
		}
	}
	for _, key := range p.arenaOrder {
		c := p.arena[key]
		fp.add("arena|"+key, "speedup=%s %s issued=%d useful=%d late=%d redundant=%d dropped_tlb=%d dropped_mshr=%d evicted_unused=%d resident_unused=%d in_flight_end=%d harmful=%d hw_issued=%d hw_replaced=%d hw_wrapped=%d",
			ftoa(c.Speedup), runStatsLine(c.Run), c.Stats.Issued, c.Stats.Useful, c.Stats.Late, c.Stats.Redundant,
			c.Stats.DroppedTLB, c.Stats.DroppedMSHR, c.Stats.EvictedUnused, c.Stats.ResidentUnused, c.Stats.InFlightEnd,
			c.Stats.Harmful, c.Run.HWPF.Issued, c.Run.HWPF.Replaced, c.Run.HWPF.Wrapped)
	}
	if p.registry != nil {
		for _, r := range p.registry.Reports() {
			t := r.Totals
			var lv []string
			for _, l := range r.Levels {
				lv = append(lv, fmt.Sprintf("%s=%d/%d", l.Name, l.Hits, l.Misses))
			}
			fp.add("obs|"+r.Run, "issued=%d useful=%d late=%d evicted_unused=%d resident_unused=%d in_flight_end=%d harmful=%d uncovered=%d levels=%s",
				t.Issued, t.Useful, t.Late, t.EvictedUnused, t.ResidentUnused, t.InFlightEnd, t.Harmful, r.UncoveredMisses, strings.Join(lv, ","))
		}
	}
	for _, m := range runs {
		fp.add("measure|"+m.workload+"|"+m.kind, "%s", m.line())
	}
	return fp
}

// measureRun is one simulation the benchmark drives through machine.New
// and Run itself, for the counts the session's cells do not expose: the
// per-level hits and misses, and prefetches issued.
type measureRun struct {
	workload, kind string
	stats          machine.Stats
	levels         []levelCount
	prefetches     uint64
	useful         uint64
	late           uint64
	drops          uint64
}

type levelCount struct {
	name         string
	hits, misses uint64
}

func (m measureRun) line() string {
	var lv []string
	for _, l := range m.levels {
		lv = append(lv, fmt.Sprintf("%s=%d/%d", l.name, l.hits, l.misses))
	}
	return fmt.Sprintf("instrs=%d cycles=%d loads=%d prefetches=%d pf_useful=%d pf_late=%d pf_drops=%d levels=%s",
		m.stats.Instrs, m.stats.Cycles, m.stats.LoadRefs, m.prefetches, m.useful, m.late, m.drops, strings.Join(lv, ","))
}

// runMachine executes prog on workload w's input in a fresh machine.
func runMachine(w core.Workload, kind string, prog *ir.Program, in core.Input, opts ...machine.Option) (measureRun, error) {
	m, err := machine.New(prog, opts...)
	if err != nil {
		return measureRun{}, err
	}
	w.Setup(m, in)
	if _, err := m.Run(); err != nil {
		return measureRun{}, fmt.Errorf("%s %s: %w", w.Name(), kind, err)
	}
	r := measureRun{
		workload: w.Name(), kind: kind, stats: m.Stats(),
		prefetches: m.Hier.Prefetches, useful: m.Hier.PrefetchUseful,
		late: m.Hier.PrefetchLate, drops: m.Hier.PrefetchDrops,
	}
	for i := range m.Hier.Config().Levels {
		c := m.Hier.Level(i)
		r.levels = append(r.levels, levelCount{c.Config().Name, c.Hits, c.Misses})
	}
	return r, nil
}

// measureRuns runs, for each workload with an edge-check train profile in
// the pass, its clean binary and the binary prefetched from that profile
// on the ref input.
func measureRuns(p *simPass, roster []string) ([]measureRun, error) {
	var out []measureRun
	for _, name := range roster {
		w := workloads.Get(name)
		pr, ok := p.profiles[name+"|edge-check|train"]
		if !ok {
			return nil, fmt.Errorf("no edge-check train profile for %s", name)
		}
		clean, err := runMachine(w, "clean", w.Program(), w.Ref())
		if err != nil {
			return nil, err
		}
		fb, err := core.BuildPrefetched(w, pr.Profiles, prefetch.Options{})
		if err != nil {
			return nil, err
		}
		pf, err := runMachine(w, "prefetched", fb.Prog, w.Ref())
		if err != nil {
			return nil, err
		}
		out = append(out, clean, pf)
	}
	return out, nil
}

// fingerprintFile holds the recorded fingerprint of every workload.
type fingerprintFile map[string]fingerprint

func loadFingerprints(path string) (fingerprintFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fingerprintFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// recordFingerprint replaces one workload's entry in the file at path.
func recordFingerprint(path, workload string, fp fingerprint) error {
	f, err := loadFingerprints(path)
	if os.IsNotExist(err) {
		f, err = make(fingerprintFile), nil
	}
	if err != nil {
		return err
	}
	f[workload] = fp
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// diffFingerprints lists the keys whose values differ or that only one
// side has, sorted.
func diffFingerprints(want, got fingerprint) []string {
	var out []string
	for k, v := range want {
		if g, ok := got[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing (want %s)", k, v))
		} else if g != v {
			out = append(out, fmt.Sprintf("%s: got %s, want %s", k, g, v))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected %s", k, g))
		}
	}
	sort.Strings(out)
	return out
}
