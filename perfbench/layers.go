package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/cache"
	"stridepf/internal/client"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
	"stridepf/internal/workloads"
)

// layerDoc names one per-layer metric of the traced run and the
// end-to-end metric, on which workload, it should move.
type layerDoc struct {
	name, unit, feeds string
}

// selfLayers are the layers the traced run opens spans for; each reports
// its self time as self_s.<layer>.
var selfLayers = []string{"experiments", "machine", "mem", "cache", "stride", "lfu", "instrument", "prefetch", "hwpf", "walstore", "server", "client"}

// replayWorkloads are the demand-load streams the mem and cache replays
// use: pointer-chasing mcf and compute-bound crafty.
var replayWorkloads = []struct{ name, short string }{{"181.mcf", "mcf"}, {"186.crafty", "crafty"}}

// layerDocs lists every per-layer metric in report order.
func layerDocs() []layerDoc {
	d := []layerDoc{
		{"experiments.profile_s", "s", "wall_s on paper and arena-obs"},
		{"experiments.clean_s", "s", "wall_s on paper and arena-obs"},
		{"experiments.speedup_s", "s", "wall_s on paper and arena-obs"},
		{"experiments.arena_s", "s", "wall_s on arena-obs"},
		{"experiments.classify_s", "s", "op_p50_ms on ingest-watch (the plan loop classifies every kernel upload)"},
		{"experiments.tables_s", "s", "wall_s on paper"},
		{"machine.fused_minstrs_per_s", "Minstr/s", "wall_s on paper"},
		{"machine.ref_minstrs_per_s", "Minstr/s", "wall_s on arena-obs only; paper should not move"},
		{"machine.new_ms", "ms", "setup_s and wall_s on paper and arena-obs"},
		{"machine.instrs", "count", "exact: sim_speedup_avg and the fingerprint on paper"},
		{"mem.load_ns.mcf", "ns", "wall_s on paper (pointer-chasing: should move more than crafty)"},
		{"mem.load_ns.crafty", "ns", "wall_s on paper"},
		{"mem.pages.mcf", "count", "wall_s on paper"},
		{"cache.load_ns.mcf", "ns", "wall_s on paper (pointer-chasing: should move more than crafty)"},
		{"cache.load_ns.crafty", "ns", "wall_s on paper"},
		{"cache.l1_miss_ratio", "frac", "exact: sim_speedup_avg on paper"},
		{"cache.l2_miss_ratio", "frac", "exact: sim_speedup_avg on paper"},
		{"cache.l3_miss_ratio", "frac", "exact: sim_speedup_avg on paper"},
		{"cache.pf_useful_frac", "frac", "exact: sim_speedup_avg on paper"},
		{"stride.profile_ns", "ns", "wall_s on paper through experiments.profile_s"},
		{"lfu.add_ns", "ns", "wall_s on paper through experiments.profile_s"},
		{"stride.lfu_calls", "count", "exact: wall_s on paper through experiments.profile_s"},
		{"stride.processed_refs", "count", "exact: wall_s on paper through experiments.profile_s"},
		{"instrument.ms", "ms", "wall_s on paper"},
		{"prefetch.apply_ms", "ms", "wall_s on paper"},
	}
	for _, s := range hwpf.Schemes() {
		d = append(d, layerDoc{"hwpf.observe_ns." + s, "ns", "wall_s on arena-obs"})
	}
	for _, s := range hwpf.Schemes() {
		d = append(d, layerDoc{"hwpf.useful_frac." + s, "frac", "exact: the arena table on arena-obs"})
	}
	d = append(d, []layerDoc{
		{"obs.overhead_frac", "frac", "wall_s on arena-obs"},
		{"walstore.upload_ms_p50", "ms", "op_p50_ms and wall_s on ingest-watch"},
		{"walstore.upload_ms_p99", "ms", "op_tail_ms on ingest-watch"},
		{"walstore.snapshots", "count", "op_tail_ms on ingest-watch"},
		{"walstore.recover_s", "s", "setup_s on ingest-watch"},
		{"walstore.bytes", "bytes", "setup_s on ingest-watch"},
		{"server.batch_ms_p50", "ms", "op_p50_ms on ingest-watch"},
		{"server.batch_ms_p99", "ms", "op_tail_ms on ingest-watch"},
		{"server.classify_ms", "ms", "op_p50_ms and plan lag on ingest-watch"},
		{"client.encode_ms", "ms", "op_p50_ms on ingest-watch"},
		{"watch.deltas", "count", "plan lag and wall_s on ingest-watch"},
		{"watch.lag_p50_ms", "ms", "plan lag on ingest-watch"},
		{"watch.lag_tail_ms", "ms", "plan lag on ingest-watch"},
	}...)
	for _, l := range selfLayers {
		d = append(d, layerDoc{"self_s." + l, "s", "the end-to-end metrics its layer's metrics feed"})
	}
	return append(d,
		layerDoc{"trace.overhead_s", "s", "traced minus untraced wall_s of the run's workload"},
		layerDoc{"trace.overhead_frac", "frac", "trace.overhead_s over the untraced wall_s"},
	)
}

// traceFile is what the traced run writes out when it ends.
type traceFile struct {
	RunID    string             `json:"run_id"`
	Host     host               `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Overhead map[string]float64 `json:"overhead"`
	SelfTime map[string]float64 `json:"self_time_s"`
	Metrics  []tracedMetric     `json:"metrics"`
	Spans    []Span             `json:"spans"`
}

type tracedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Feeds string  `json:"feeds"`
}

// runTraced is the per-layer run: one untraced pass of the workload, then
// a sweep over every layer with each call from the benchmark into a layer
// recorded as a span. The workload's own pass recurs traced inside the
// sweep, and the difference between the two is the tracing overhead.
func runTraced(ctx context.Context, cfg config, rep *report) error {
	ops := newOpLog(nil, 0)
	dir := filepath.Join(cfg.out, fmt.Sprintf("traced-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	in, err := makeIngestInputs(cfg.seed, ingestBatches, dir)
	if err != nil {
		return err
	}
	paper, arena := simSpecFor("paper"), simSpecFor("arena-obs")
	warmPrograms(paper.roster)

	var untraced time.Duration
	switch cfg.workload {
	case "ingest-watch":
		p, err := runIngestPass(ctx, in, filepath.Join(dir, "pass"), nil, 0)
		if err != nil {
			return err
		}
		ops.merge(p.ops)
		untraced = p.wall
	default:
		spec := simSpecFor(cfg.workload)
		p := runSimPass(ctx, spec, nil, 0)
		if err := checkSimOutput(cfg, spec, p); err != nil {
			return err
		}
		ops.merge(p.ops)
		untraced = p.wall
	}

	tr := NewTracer(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	m := make(map[string]float64)
	set := func(name string, v float64) { m[name] = v }
	traced := make(map[string]time.Duration)

	// experiments and machine, through the paper pipeline.
	pp := runSimPass(ctx, paper, tr, 0)
	traced["paper"] = pp.wall
	if err := checkSimOutput(cfg, paper, pp); err != nil {
		return err
	}
	ops.merge(pp.ops)
	for _, st := range []string{"profile", "clean", "speedup"} {
		set("experiments."+st+"_s", seconds(pp.ops.stage["experiments."+st]))
	}
	set("experiments.tables_s", seconds(selfTimeOf(tr, "experiments.tables")))
	set("machine.fused_minstrs_per_s", float64(pp.cleanInstrs)/1e6/seconds(pp.cleanTime))
	set("machine.instrs", float64(pp.cleanInstrs))
	var lfuCalls, processed int64
	for _, pr := range pp.profiles {
		lfuCalls += pr.LFUCalls
		processed += pr.ProcessedRefs
	}
	set("stride.lfu_calls", float64(lfuCalls))
	set("stride.processed_refs", float64(processed))
	cl := newOpLog(tr, 0)
	for _, w := range paper.roster {
		pr := pp.profiles[w+"|naive-all|train"]
		cl.do("experiments.classify", func() error {
			_, err := pp.session.ClassifyProfile(w, pr.Profiles, false)
			return err
		})
	}
	ops.merge(cl)
	set("experiments.classify_s", seconds(cl.stage["experiments.classify"]))

	// hwpf and obs, through the arena-obs mix on the reference loop.
	ap := runSimPass(ctx, arena, tr, 0)
	traced["arena-obs"] = ap.wall
	if err := checkSimOutput(cfg, arena, ap); err != nil {
		return err
	}
	ops.merge(ap.ops)
	set("experiments.arena_s", seconds(ap.ops.stage["experiments.arena"]))
	set("machine.ref_minstrs_per_s", float64(ap.refInstrs)/1e6/seconds(ap.refTime))
	for _, scheme := range hwpf.Schemes() {
		var useful, issued uint64
		for key, c := range ap.arena {
			if schemeOf(key) == scheme {
				useful += c.Stats.Useful
				issued += c.Stats.Issued
			}
		}
		set("hwpf.useful_frac."+scheme, ratio(useful, issued))
	}
	base := newSimPass(simSpec{roster: arena.roster}, tr, 0)
	base.fig16Cells(ctx, arena.roster)
	ops.merge(base.ops)
	withObs := ap.ops.stage["experiments.profile"] + ap.ops.stage["experiments.clean"] + ap.ops.stage["experiments.speedup"]
	without := base.ops.stage["experiments.profile"] + base.ops.stage["experiments.clean"] + base.ops.stage["experiments.speedup"]
	set("obs.overhead_frac", (seconds(withObs)-seconds(without))/seconds(without))

	// machine construction, instrumentation and prefetch insertion.
	if err := traceStatic(tr, pp, paper.roster, set); err != nil {
		return err
	}

	// Exact cache counts from real machine runs.
	_, end := tr.Start("machine.measure_runs", 0)
	runs, err := measureRuns(pp, paper.roster)
	end()
	if err != nil {
		return err
	}
	setCacheRatios(runs, set)

	// mem, cache, stride, lfu and hwpf replays of recorded load streams.
	if err := traceReplays(tr, ops, set); err != nil {
		return err
	}

	// walstore, server, client and watch, through one traced ingest pass.
	if err := traceIngest(ctx, tr, in, dir, ops, set, traced); err != nil {
		return err
	}

	self := selfTimes(tr.Spans())
	selfOut := make(map[string]float64)
	for _, l := range selfLayers {
		set("self_s."+l, seconds(self[l]))
		selfOut[l] = seconds(self[l])
	}
	over := traced[cfg.workload] - untraced
	set("trace.overhead_s", seconds(over))
	set("trace.overhead_frac", seconds(over)/seconds(untraced))

	docs := layerDocs()
	tf := traceFile{
		RunID: tr.RunID, Host: hostFingerprint(), Workload: cfg.workload, Seed: cfg.seed,
		Overhead: map[string]float64{"untraced_wall_s": seconds(untraced), "traced_wall_s": seconds(traced[cfg.workload]), "overhead_s": seconds(over)},
		SelfTime: selfOut, Spans: tr.Spans(),
	}
	rep.Result.Metrics = make(map[string]metric)
	for _, d := range docs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", d.name)
		}
		rep.Result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		tf.Metrics = append(tf.Metrics, tracedMetric{d.name, v, d.unit, d.feeds})
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeJSON(path, tf); err != nil {
		return err
	}
	printTraced(os.Stderr, tf, path)
	rep.Passes = 1
	finishOps(rep, ops)
	return nil
}

// selfTimeOf sums the self time of the spans named name.
func selfTimeOf(tr *Tracer, name string) time.Duration {
	return selfBy(tr.Spans(), func(s Span) string { return s.Name })[name]
}

// schemeOf returns the scheme of an arena cell key "workload|hier|scheme".
func schemeOf(key string) string { return key[strings.LastIndexByte(key, '|')+1:] }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceStatic times machine construction, instrumentation and prefetch
// insertion over the paper roster.
func traceStatic(tr *Tracer, pp *simPass, names []string, set func(string, float64)) error {
	var newTotals []float64
	for rep := 0; rep < 5; rep++ {
		var total time.Duration
		for _, name := range names {
			prog := workloads.Get(name).Program()
			_, end := tr.Start("machine.new", 0)
			t0 := time.Now()
			_, err := machine.New(prog)
			total += time.Since(t0)
			end()
			if err != nil {
				return err
			}
		}
		newTotals = append(newTotals, millis(total))
	}
	set("machine.new_ms", median(newTotals))

	var inst, apply time.Duration
	for _, name := range names {
		prog := workloads.Get(name).Program()
		for _, m := range experiments.PaperMethods() {
			_, end := tr.Start("instrument.instrument", 0)
			t0 := time.Now()
			_, err := instrument.Instrument(prog, m.Opts)
			inst += time.Since(t0)
			end()
			if err != nil {
				return err
			}
		}
		pr := pp.profiles[name+"|edge-check|train"]
		_, end := tr.Start("prefetch.apply", 0)
		t0 := time.Now()
		_, err := prefetch.Apply(prog, pr.Profiles, prefetch.Options{})
		apply += time.Since(t0)
		end()
		if err != nil {
			return err
		}
	}
	set("instrument.ms", millis(inst))
	set("prefetch.apply_ms", millis(apply))
	return nil
}

// setCacheRatios sets the per-level miss ratios of the clean runs and the
// useful share of prefetches the prefetched runs issued.
func setCacheRatios(runs []measureRun, set func(string, float64)) {
	var hits, misses [3]uint64
	var useful, issued uint64
	for _, r := range runs {
		if r.kind == "prefetched" {
			useful += r.useful
			issued += r.prefetches
			continue
		}
		for i, l := range r.levels {
			if i < len(hits) {
				hits[i] += l.hits
				misses[i] += l.misses
			}
		}
	}
	for i := range hits {
		set(fmt.Sprintf("cache.l%d_miss_ratio", i+1), ratio(misses[i], hits[i]+misses[i]))
	}
	set("cache.pf_useful_frac", ratio(useful, issued))
}

// loadRec is one demand load of a recorded stream.
type loadRec struct {
	pc, addr, now uint64
}

// recorder is a machine.HWPrefetcher that records the demand-load stream
// and prefetches nothing. Attaching it forces the reference loop, which
// is why recording is never timed.
type recorder struct{ recs []loadRec }

func (r *recorder) Observe(pc, addr uint64, _ *cache.Hierarchy, now uint64) {
	r.recs = append(r.recs, loadRec{pc, addr, now})
}

// recordStream runs workload name's clean binary on input in with a
// recorder attached and returns the stream and the machine that ran it.
func recordStream(name string, in func(core.Workload) core.Input) ([]loadRec, *machine.Machine, error) {
	w := workloads.Get(name)
	rec := &recorder{}
	m, err := machine.New(w.Program(), machine.WithHWPrefetch(rec))
	if err != nil {
		return nil, nil, err
	}
	w.Setup(m, in(w))
	if _, err := m.Run(); err != nil {
		return nil, nil, err
	}
	return rec.recs, m, nil
}

// replayCountErr checks that a replay processed exactly the accesses the
// recorded run made: the recorded stream must hold every demand load the
// run counted, and the replay must have performed one access per record.
func replayCountErr(layer string, runLoads uint64, recorded int, replayed uint64) error {
	if uint64(recorded) != runLoads {
		return fmt.Errorf("%s replay: recorded %d loads, the run counted %d", layer, recorded, runLoads)
	}
	if replayed != uint64(recorded) {
		return fmt.Errorf("%s replay: replayed %d of %d recorded loads", layer, replayed, recorded)
	}
	return nil
}

// replaySink keeps replayed values live so the compiler keeps the loads.
var replaySink int64

// traceReplays replays recorded demand-load streams through one layer at
// a time: mem and cache on the mcf and crafty ref streams, hwpf on the
// mcf ref stream, and stride and lfu on the mcf train stream.
func traceReplays(tr *Tracer, ops *opLog, set func(string, float64)) error {
	var mcfRef []loadRec
	for _, rw := range replayWorkloads {
		recs, m, err := recordStream(rw.name, core.Workload.Ref)
		if err != nil {
			return err
		}
		loads := m.Stats().LoadRefs

		_, end := tr.Start("mem.load_replay", 0)
		t0 := time.Now()
		var sum int64
		for _, r := range recs {
			sum += m.Mem.Load(r.addr)
		}
		d := time.Since(t0)
		end()
		replaySink += sum
		ops.check(replayCountErr("mem", loads, len(recs), uint64(len(recs))))
		set("mem.load_ns."+rw.short, nsPer(d, len(recs)))
		if rw.short == "mcf" {
			set("mem.pages.mcf", float64(m.Mem.Pages()))
			mcfRef = recs
		}

		h := cache.NewHierarchy(cache.ItaniumConfig())
		_, end = tr.Start("cache.load_replay", 0)
		t0 = time.Now()
		for _, r := range recs {
			h.Load(r.addr, r.now)
		}
		d = time.Since(t0)
		end()
		ops.check(replayCountErr("cache", loads, len(recs), h.Loads))
		set("cache.load_ns."+rw.short, nsPer(d, len(recs)))
	}

	for _, scheme := range hwpf.Schemes() {
		p, err := hwpf.NewScheme(scheme, hwpf.Config{})
		if err != nil {
			return err
		}
		h := cache.NewHierarchy(cache.ItaniumConfig())
		_, end := tr.Start("hwpf.observe_replay", 0)
		t0 := time.Now()
		for _, r := range mcfRef {
			p.Observe(r.pc, r.addr, h, r.now)
		}
		d := time.Since(t0)
		end()
		set("hwpf.observe_ns."+scheme, nsPer(d, len(mcfRef)))
	}
	mcfRef = nil

	train, m, err := recordStream("181.mcf", core.Workload.Train)
	if err != nil {
		return err
	}
	ops.check(replayCountErr("stride", m.Stats().LoadRefs, len(train), uint64(len(train))))
	rt := stride.NewRuntime(stride.Config{})
	data := make(map[uint64]*stride.ProfData)
	for _, r := range train {
		if data[r.pc] == nil {
			key := machine.LoadKey{Func: "replay", ID: len(data)}
			rt.AddLoad(key)
			data[r.pc] = rt.Data(key)
		}
	}
	_, end := tr.Start("stride.profile_replay", 0)
	t0 := time.Now()
	for _, r := range train {
		rt.Profile(data[r.pc], int64(r.addr))
	}
	d := time.Since(t0)
	end()
	set("stride.profile_ns", nsPer(d, len(train)))

	// The LFU sees each load's stride stream, as strideProf feeds it.
	last := make(map[uint64]uint64)
	strides := make([]int64, 0, len(train))
	pcs := make([]uint64, 0, len(train))
	for _, r := range train {
		if prev, ok := last[r.pc]; ok {
			strides = append(strides, int64(r.addr-prev))
			pcs = append(pcs, r.pc)
		}
		last[r.pc] = r.addr
	}
	profs := make(map[uint64]*lfu.Profiler)
	for _, pc := range pcs {
		if profs[pc] == nil {
			profs[pc] = lfu.New(lfu.Config{})
		}
	}
	_, end = tr.Start("lfu.add_replay", 0)
	t0 = time.Now()
	for i, s := range strides {
		profs[pcs[i]].Add(s)
	}
	d = time.Since(t0)
	end()
	var calls int64
	for _, p := range profs {
		calls += p.LFUCalls
	}
	ops.check(replayCountErr("lfu", uint64(len(strides)), len(strides), uint64(calls)))
	set("lfu.add_ns", nsPer(d, len(strides)))
	return nil
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// traceIngest runs one traced ingest pass and the offline classification
// and encoding measurements beside it.
func traceIngest(ctx context.Context, tr *Tracer, in *ingestInputs, dir string, ops *opLog, set func(string, float64), traced map[string]time.Duration) error {
	var recovery []float64
	for i := 0; i < setupReps; i++ {
		_, rec, err := ingestSetup(in, filepath.Join(dir, "setup"))
		if err != nil {
			return err
		}
		recovery = append(recovery, seconds(rec))
	}
	set("walstore.recover_s", median(recovery))

	p, err := runIngestPass(ctx, in, filepath.Join(dir, "pass"), tr, 0)
	if err != nil {
		return err
	}
	traced["ingest-watch"] = p.wall
	ops.merge(p.ops)
	if p.resets != 0 {
		ops.check(fmt.Errorf("watch: %d reset snapshots; the subscriber never fell behind the history ring", p.resets))
	}
	st, hd, lag := summarize(p.storeLat), summarize(p.handlerLat), summarize(p.lag)
	set("walstore.upload_ms_p50", st.P50)
	set("walstore.upload_ms_p99", percentile(msOf(p.storeLat), 99))
	set("walstore.snapshots", float64(p.snapshots))
	set("walstore.bytes", float64(p.walBytes))
	set("server.batch_ms_p50", hd.P50)
	set("server.batch_ms_p99", percentile(msOf(p.handlerLat), 99))
	set("watch.deltas", float64(p.deltas))
	set("watch.lag_p50_ms", lag.P50)
	set("watch.lag_tail_ms", lag.Tail)

	// The plan loop's classification, replayed offline over the same
	// decayed window of kernel shards the server's watcher saw.
	win, err := profile.NewWindow(profile.WindowConfig{})
	if err != nil {
		return err
	}
	sess := experiments.NewSession(experiments.Config{Workloads: []string{in.kernel.Name()}, Jobs: 1})
	var cls []float64
	for i := 0; i < len(in.schedule); i++ {
		if _, err := win.Add(in.phaseShards[in.schedule[i]]); err != nil {
			return err
		}
		snap, _ := win.Snapshot()
		_, end := tr.Start("experiments.classify_window", 0)
		t0 := time.Now()
		_, err := sess.ClassifyProfile(in.kernel.Name(), snap, false)
		cls = append(cls, millis(time.Since(t0)))
		end()
		if err != nil {
			return err
		}
	}
	set("server.classify_ms", median(cls))

	// The client's encoding of a batch: the profile codec per shard, then
	// the JSON batch document.
	var enc []float64
	for i := 0; i < len(in.schedule); i++ {
		t0 := time.Now()
		if err := encodeBatch(in.batch(i, "enc")); err != nil {
			return err
		}
		enc = append(enc, millis(time.Since(t0)))
	}
	set("client.encode_ms", median(enc))
	return nil
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// encodeBatch encodes a batch the way client.UploadBatch does.
func encodeBatch(shards []client.BatchShard) error {
	wire := make([]api.BatchShard, len(shards))
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := profile.DefaultCodec.Encode(&buf, sh.Profile); err != nil {
			return err
		}
		wire[i] = api.BatchShard{Workload: sh.Workload, Config: sh.Config, IdemKey: sh.Key, Profile: buf.Bytes()}
	}
	_, err := json.Marshal(api.BatchRequest{Shards: wire})
	return err
}

// printTraced writes the traced run's metrics with what each feeds.
func printTraced(w io.Writer, tf traceFile, path string) {
	fmt.Fprintf(w, "traced run %s: %d spans written to %s\n", tf.RunID, len(tf.Spans), path)
	fmt.Fprintf(w, "tracing overhead: traced %.3f s - untraced %.3f s = %.3f s\n",
		tf.Overhead["traced_wall_s"], tf.Overhead["untraced_wall_s"], tf.Overhead["overhead_s"])
	layers := make([]string, 0, len(tf.SelfTime))
	for l := range tf.SelfTime {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "self time by layer:")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.4f s\n", l, tf.SelfTime[l])
	}
	fmt.Fprintln(w, "per-layer metrics (value, unit, the end-to-end metric it feeds):")
	for _, m := range tf.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Feeds)
	}
}
