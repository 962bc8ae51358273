package experiments

import (
	"context"
	"fmt"
	"strings"

	"stridepf/internal/cache"
	"stridepf/internal/core"
	"stridepf/internal/hwpf"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// The prefetcher arena is the scheme × workload × cache-config cross
// product the ROADMAP's "prefetching test bench" item asks for: every
// registered hardware scheme runs the clean binary of every selected
// workload on the reference input under every arena cache configuration,
// scored through the obs layer's accuracy / coverage / timeliness roll-ups
// against a no-prefetcher baseline of the same (workload, cache) cell.

// NamedHierarchy pairs a label with a cache configuration for the arena
// cross product.
type NamedHierarchy struct {
	// Name labels the configuration in row names ("base", "small").
	Name string
	// Config is the hierarchy to simulate.
	Config cache.HierarchyConfig
}

// ArenaHierarchies returns the cache configurations the arena sweeps: the
// paper's Itanium-like hierarchy and a capacity-starved variant where
// prefetch pollution and MSHR pressure actually bite.
func ArenaHierarchies() []NamedHierarchy {
	return []NamedHierarchy{
		{Name: "base", Config: cache.ItaniumConfig()},
		{Name: "small", Config: smallHierarchy()},
	}
}

// smallHierarchy is the pressure configuration: a quarter-size two-way L1,
// a third-size L2, no L3, slower memory and half the fill bandwidth. Under
// it an aggressive scheme's evicted-unused and dropped-MSHR counts — near
// zero on the roomy base hierarchy — separate the schemes.
func smallHierarchy() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		Levels: []cache.Config{
			{Name: "L1D", Size: 4 << 10, Assoc: 2, LineSize: 64, HitLatency: 2},
			{Name: "L2", Size: 32 << 10, Assoc: 4, LineSize: 64, HitLatency: 12},
		},
		MemLatency:   160,
		StoreLatency: 2,
		MaxInFlight:  8,
	}
}

// arenaHierarchy resolves a cache-config label.
func arenaHierarchy(name string) (cache.HierarchyConfig, error) {
	for _, h := range ArenaHierarchies() {
		if h.Name == name {
			return h.Config, nil
		}
	}
	return cache.HierarchyConfig{}, fmt.Errorf("experiments: unknown arena cache config %q", name)
}

// ArenaCell is one scheme × workload × cache-config measurement.
type ArenaCell struct {
	// Speedup is baseline cycles over prefetched cycles for the cell's
	// (workload, cache config), >1 when the scheme helped.
	Speedup float64
	// Accuracy, Coverage and Timeliness are the obs layer's hwpf-class
	// roll-ups for the run (see package obs).
	Accuracy, Coverage, Timeliness float64
	// Stats is the hwpf-class lifecycle account.
	Stats obs.ClassStats
	// UncoveredMisses is the run's unhelped demand-miss count (the
	// coverage denominator's miss side).
	UncoveredMisses uint64
	// Run is the scheme run's execution snapshot (Run.HWPF carries the
	// scheme-side counters).
	Run core.RunStats
}

// arenaBase returns the memoised no-prefetcher baseline run of the
// workload's clean binary on the reference input under the named cache
// config.
func (s *Session) arenaBase(ctx context.Context, wname, hierName string) (core.RunStats, error) {
	return memo(ctx, s, "arenabase|"+wname+"|"+hierName, func() (core.RunStats, error) {
		w, err := s.workload(wname)
		if err != nil {
			return core.RunStats{}, err
		}
		hier, err := arenaHierarchy(hierName)
		if err != nil {
			return core.RunStats{}, err
		}
		mcfg := s.mcfg(ctx)
		mcfg.Hierarchy = hier
		mcfg.NewHWPrefetch = nil
		st, err := core.Execute(w.Program(), w, w.Ref(), mcfg)
		return st, ctxErr(ctx, err)
	})
}

// ArenaCell returns the memoised arena measurement of one scheme on one
// workload under one cache config. The scheme run must return the same
// value as the baseline (a prefetcher that corrupts architectural state is
// an error, not a slow scheme) and its collector must reconcile.
func (s *Session) ArenaCell(ctx context.Context, wname, hierName, scheme string) (*ArenaCell, error) {
	key := "arena|" + wname + "|" + hierName + "|" + scheme
	return memo(ctx, s, key, func() (*ArenaCell, error) {
		w, err := s.workload(wname)
		if err != nil {
			return nil, err
		}
		hier, err := arenaHierarchy(hierName)
		if err != nil {
			return nil, err
		}
		if _, err := hwpf.NewScheme(scheme, s.cfg.HWPFConfig); err != nil {
			return nil, err
		}
		base, err := s.arenaBase(ctx, wname, hierName)
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector(s.cfg.Trace.WithRun(key))
		mcfg := s.mcfg(ctx)
		mcfg.Hierarchy = hier
		mcfg.Obs = col
		hcfg := s.cfg.HWPFConfig
		mcfg.NewHWPrefetch = func() machine.HWPrefetcher {
			p, _ := hwpf.NewScheme(scheme, hcfg)
			return p
		}
		run, err := core.Execute(w.Program(), w, w.Ref(), mcfg)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		if run.Ret != base.Ret {
			return nil, fmt.Errorf("experiments: arena %s/%s: scheme %s corrupted architectural state (%d vs %d)",
				wname, hierName, scheme, run.Ret, base.Ret)
		}
		if err := col.Reconcile(); err != nil {
			return nil, fmt.Errorf("experiments: arena %s/%s/%s: %w", wname, hierName, scheme, err)
		}
		if s.cfg.Metrics != nil {
			rep := obs.BuildReport(key, col)
			rep.Workload = wname
			rep.Label = "arena|" + hierName + "|" + scheme
			s.cfg.Metrics.Register(rep)
		}
		hw := col.Classes[obs.ClassHW]
		return &ArenaCell{
			Speedup:         float64(base.Stats.Cycles) / float64(run.Stats.Cycles),
			Accuracy:        hw.Accuracy(),
			Coverage:        col.ClassCoverage(obs.ClassHW),
			Timeliness:      hw.Timeliness(),
			Stats:           hw,
			UncoveredMisses: col.UncoveredMisses,
			Run:             run,
		}, nil
	})
}

// arenaRows is the arena figure's row order, keyed
// "workload|cache config|scheme": the session's workload order, then
// ArenaHierarchies order, then hwpf.Schemes order, so the table is
// byte-stable.
func arenaRows(s *Session) []string {
	var rows []string
	for _, wname := range s.cfg.names() {
		for _, h := range ArenaHierarchies() {
			for _, scheme := range hwpf.Schemes() {
				rows = append(rows, wname+"|"+h.Name+"|"+scheme)
			}
		}
	}
	return rows
}

// arenaValue is an arena figure cell: the speedup, accuracy, coverage or
// timeliness of the row's scheme.
func arenaValue(ctx context.Context, s *Session, row string, col int) (float64, error) {
	k := strings.SplitN(row, "|", 3)
	c, err := s.ArenaCell(ctx, k[0], k[1], k[2])
	if err != nil {
		return 0, err
	}
	return [...]float64{c.Speedup, c.Accuracy, c.Coverage, c.Timeliness}[col], nil
}
