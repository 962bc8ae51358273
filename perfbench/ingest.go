package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/client"
	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/server"
	"stridepf/internal/simcheck"
	"stridepf/internal/walstore"
	"stridepf/internal/workloads"
)

const (
	// ingestBatches is the producer's fixed work per pass. At least 1000
	// batches keep ten or more round trips beyond the reported p99.
	ingestBatches = 1500
	// ingestConfig is the profile configuration every shard uploads under.
	ingestConfig = "bench"
	// kernelPhases is how many drift phases the producer cycles through.
	kernelPhases = 8
	// spanHeader carries the producer's span ID to the server's handler
	// span in the traced run.
	spanHeader = "X-Perfbench-Span"
)

// ingestRoster are the real workloads whose edge-check train shards ride
// in every batch beside the drift kernel's shard: pointer-chasing mcf,
// compute-bound crafty, and the two strided benchmarks the paper quotes.
var ingestRoster = []string{"181.mcf", "186.crafty", "197.parser", "254.gap"}

// ingestInputs are the seed-derived inputs of the ingest-watch workload,
// made once per run before anything is timed.
type ingestInputs struct {
	kernel *simcheck.DriftKernel
	// phaseShards[p] is the kernel's naive-loop train profile in phase p.
	phaseShards []*profile.Combined
	// schedule[i] is the kernel phase of batch i: the phase advances every
	// two to six batches, so the plan keeps changing.
	schedule []int
	// real[j] is ingestRoster[j]'s edge-check train profile, and realRuns
	// the profiling runs that made them.
	real     []*profile.Combined
	realRuns []*core.ProfileRun
	// baseDir holds the pre-written log: one pass's worth of batches
	// committed straight to a walstore, which every pass and every set-up
	// repetition recovers from a fresh copy.
	baseDir string
}

// splitmix64 is the benchmark's deterministic generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// makeIngestInputs derives the drift kernel and a phase schedule of the
// given number of batches from seed, profiles the kernel in every phase and
// the real workloads once, and writes the pre-written log under dir.
func makeIngestInputs(seed uint64, batches int, dir string) (*ingestInputs, error) {
	in := &ingestInputs{kernel: driftKernel(seed)}
	if err := workloads.Register(in.kernel); err != nil {
		return nil, err
	}
	for p := 0; p < kernelPhases; p++ {
		in.kernel.SetPhase(p)
		pr, err := core.ProfilePass(in.kernel, in.kernel.Train(), instrument.Options{Method: instrument.NaiveLoop}, machine.Config{})
		if err != nil {
			return nil, fmt.Errorf("profiling drift kernel phase %d: %w", p, err)
		}
		in.phaseShards = append(in.phaseShards, pr.Profiles)
	}
	rng := splitmix64(seed)
	phase, left := 0, 0
	for i := 0; i < batches; i++ {
		if left == 0 {
			phase = (phase + 1) % kernelPhases
			left = 2 + int(rng.next()%5)
		}
		left--
		in.schedule = append(in.schedule, phase)
	}
	for _, name := range ingestRoster {
		w := workloads.Get(name)
		pr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", name, err)
		}
		in.real = append(in.real, pr.Profiles)
		in.realRuns = append(in.realRuns, pr)
	}

	in.baseDir = filepath.Join(dir, "base")
	if err := os.RemoveAll(in.baseDir); err != nil {
		return nil, err
	}
	st, err := walstore.Open(in.baseDir, walstore.Options{Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(in.schedule); i++ {
		for j, sh := range in.batch(i, "pre") {
			if _, _, err := st.Upload(sh.Workload, sh.Config, sh.Profile, sh.Key); err != nil {
				st.Close()
				return nil, fmt.Errorf("pre-writing batch %d shard %d: %w", i, j, err)
			}
		}
	}
	return in, st.Close()
}

// driftKernel derives the workload's drift kernel from seed: the kernel of
// the first seed from seed upwards that has three loops. Every seed then
// uploads kernel shards of one shape, and varies only the strides, the trip
// counts and the phase schedule; a two-loop kernel would make the work per
// batch depend on the seed.
func driftKernel(seed uint64) *simcheck.DriftKernel {
	for {
		k := simcheck.NewDriftKernel(seed)
		if len(k.Strides()) == 3 {
			return k
		}
		seed++
	}
}

// batch returns batch i's shards: the kernel's shard first, then one
// train shard per real workload, under keys unique to the tag and batch.
func (in *ingestInputs) batch(i int, tag string) []client.BatchShard {
	out := make([]client.BatchShard, 0, 1+len(ingestRoster))
	out = append(out, client.BatchShard{
		Workload: in.kernel.Name(), Config: ingestConfig,
		Profile: in.phaseShards[in.schedule[i]], Key: fmt.Sprintf("%s-%d-k", tag, i),
	})
	for j, name := range ingestRoster {
		out = append(out, client.BatchShard{
			Workload: name, Config: ingestConfig,
			Profile: in.real[j], Key: fmt.Sprintf("%s-%d-%d", tag, i, j),
		})
	}
	return out
}

// workloadsInBatch lists every (workload) key the batches upload to.
func (in *ingestInputs) workloadsInBatch() []string {
	return append([]string{in.kernel.Name()}, ingestRoster...)
}

// ingestPass is the outcome of one ingest-watch pass.
type ingestPass struct {
	wall   time.Duration
	alloc  uint64
	rtt    []time.Duration
	lag    []time.Duration
	deltas int
	resets int
	ops    *opLog
	// Traced-run measurements.
	storeLat, handlerLat []time.Duration
	snapshots            int
	walBytes             int64
	aggregates           map[string]*profile.Combined
}

// lineCounter counts log lines containing a marker (walstore logs one
// line per snapshot it takes).
type lineCounter struct {
	marker string
	n      atomic.Int64
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte(c.marker))))
	return len(p), nil
}

// service is a server recovered from a walstore directory, listening on
// loopback.
type service struct {
	store    *walstore.Store
	hs       *http.Server
	base     string
	snaps    *lineCounter
	done     chan struct{}
	recovery time.Duration
}

// openService recovers the store in dir and starts a server listening on
// loopback: the ingest workload's set-up. wrap and handler, when non-nil,
// interpose the traced run's timing wrappers.
func openService(dir string, wrap func(server.ProfileStore) server.ProfileStore, handler func(http.Handler) http.Handler) (*service, error) {
	sv := &service{snaps: &lineCounter{marker: "snapshot at seq"}, done: make(chan struct{})}
	t0 := time.Now()
	st, err := walstore.Open(dir, walstore.Options{Log: log.New(sv.snaps, "", 0)})
	if err != nil {
		return nil, err
	}
	sv.recovery = time.Since(t0)
	sv.store = st
	var ps server.ProfileStore = st
	if wrap != nil {
		ps = wrap(st)
	}
	srv := server.New(server.Config{Store: ps, Log: log.New(io.Discard, "", 0)})
	var h http.Handler = srv
	if handler != nil {
		h = handler(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	sv.hs = &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	sv.base = "http://" + ln.Addr().String()
	go func() {
		defer close(sv.done)
		_ = sv.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return sv, nil
}

// close stops the server, waits for its serve loop, and closes the store.
func (sv *service) close() error {
	sv.hs.Close()
	<-sv.done
	return sv.store.Close()
}

// ingestSetup is one set-up repetition: recover a fresh copy of the
// pre-written log and start listening. It returns the total set-up time
// and the recovery part of it.
func ingestSetup(in *ingestInputs, dir string) (total, recovery time.Duration, err error) {
	if err := copyDir(in.baseDir, dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	sv, err := openService(dir, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	total = time.Since(t0)
	return total, sv.recovery, sv.close()
}

// tracedService holds the traced run's wrappers around the store, the
// handler and the producer's transport.
type tracedService struct {
	tr         *Tracer
	mu         sync.Mutex
	storeLat   []time.Duration
	handlerLat []time.Duration
	// handlerSpan is the batch handler span in progress: the producer
	// keeps one batch in flight, so uploads nest under it.
	handlerSpan atomic.Uint64
	// clientSpan is the producer's UploadBatch span in progress.
	clientSpan atomic.Uint64
}

type timedStore struct {
	server.ProfileStore
	ts *tracedService
}

func (s timedStore) Upload(workload, config string, prof *profile.Combined, key string) (server.EntryInfo, bool, error) {
	_, end := s.ts.tr.Start("walstore.upload", s.ts.handlerSpan.Load())
	t0 := time.Now()
	info, replayed, err := s.ProfileStore.Upload(workload, config, prof, key)
	d := time.Since(t0)
	end()
	s.ts.mu.Lock()
	s.ts.storeLat = append(s.ts.storeLat, d)
	s.ts.mu.Unlock()
	return info, replayed, err
}

type timedHandler struct {
	next http.Handler
	ts   *tracedService
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/profiles/batch" {
		h.next.ServeHTTP(w, r)
		return
	}
	// A request without the producer's header parses as 0 and opens a root
	// span, which is the right parent for it.
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	id, end := h.ts.tr.Start("server.batch", parent)
	h.ts.handlerSpan.Store(id)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	end()
	h.ts.mu.Lock()
	h.ts.handlerLat = append(h.ts.handlerLat, d)
	h.ts.mu.Unlock()
}

// spanTransport tags the producer's requests with its current span.
type spanTransport struct {
	next http.RoundTripper
	ts   *tracedService
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.ts.clientSpan.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(r)
}

// received is one plan delta as the subscriber saw it.
type received struct {
	delta api.PlanDelta
	at    time.Time
}

// runIngestPass runs the fixed producer work against a server recovered
// from a fresh copy of the pre-written log, with one subscriber following
// the kernel's plan, and checks every oracle of the chaos and converge
// soaks on the result.
func runIngestPass(ctx context.Context, in *ingestInputs, dir string, tr *Tracer, parent uint64) (*ingestPass, error) {
	p := &ingestPass{ops: newOpLog(tr, parent)}
	if err := copyDir(in.baseDir, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var ts *tracedService
	var wrap func(server.ProfileStore) server.ProfileStore
	var handler func(http.Handler) http.Handler
	baseTransport := &http.Transport{}
	defer baseTransport.CloseIdleConnections()
	prodTransport := http.RoundTripper(baseTransport)
	if tr != nil {
		ts = &tracedService{tr: tr}
		wrap = func(s server.ProfileStore) server.ProfileStore { return timedStore{s, ts} }
		handler = func(h http.Handler) http.Handler { return timedHandler{h, ts} }
		prodTransport = spanTransport{prodTransport, ts}
	}
	runtime.GC()
	sv, err := openService(dir, wrap, handler)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			sv.close()
		}
	}()

	prod, err := client.New(client.Config{BaseURL: sv.base, MaxAttempts: 1, HTTP: &http.Client{Transport: prodTransport}})
	if err != nil {
		return nil, err
	}
	subTransport := &http.Transport{}
	defer subTransport.CloseIdleConnections()
	sub, err := client.New(client.Config{BaseURL: sv.base, MaxAttempts: 3, BackoffBase: time.Millisecond, HTTP: &http.Client{Transport: subTransport}})
	if err != nil {
		return nil, err
	}
	kname := in.kernel.Name()
	if st, err := prod.PlanStatus(ctx, kname, ingestConfig); err != nil || st.Epoch != 0 {
		return nil, fmt.Errorf("creating plan watcher: epoch %d, %v", st.Epoch, err)
	}

	var (
		mu     sync.Mutex
		got    []received
		newest atomic.Uint64
	)
	subCtx, subCancel := context.WithCancel(ctx)
	subDone := make(chan error, 1)
	go func() {
		subDone <- sub.Subscribe(subCtx, kname, ingestConfig, 0, func(d api.PlanDelta) error {
			now := time.Now()
			mu.Lock()
			got = append(got, received{d, now})
			mu.Unlock()
			newest.Store(d.Epoch)
			return nil
		})
	}()
	// stopSub cancels the subscription and waits for it to return; every
	// path out of the pass calls it, the deferred call on error paths.
	var (
		stopOnce sync.Once
		subErr   error
	)
	stopSub := func() error {
		stopOnce.Do(func() {
			subCancel()
			subErr = <-subDone
		})
		return subErr
	}
	defer stopSub()
	// Start only once the subscription is live, so plan lag measures
	// delivery rather than connection set-up.
	for {
		st, err := prod.PlanStatus(ctx, kname, ingestConfig)
		if err != nil {
			return nil, err
		}
		if st.Subscribers > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	allocs0 := heapAllocs()
	start := time.Now()
	sent := make([]time.Time, len(in.schedule))
	for i := 0; i < len(in.schedule); i++ {
		shards := in.batch(i, "pass")
		var id uint64
		var end func()
		if ts != nil {
			id, end = tr.Start("client.upload_batch", parent)
			ts.clientSpan.Store(id)
		}
		sent[i] = time.Now()
		res, err := prod.UploadBatch(ctx, shards)
		p.rtt = append(p.rtt, time.Since(sent[i]))
		if end != nil {
			end()
		}
		p.ops.check(batchErr(i, shards, res, err))
	}
	final, err := prod.PlanStatus(ctx, kname, ingestConfig)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for newest.Load() < final.Epoch && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	p.wall = time.Since(start)
	p.alloc = heapAllocs() - allocs0
	if err := stopSub(); err != nil && !errors.Is(err, context.Canceled) {
		p.ops.check(fmt.Errorf("subscriber: %w", err))
	}

	mu.Lock()
	deltas := append([]received(nil), got...)
	mu.Unlock()
	p.deltas = len(deltas)
	for _, d := range deltas {
		if d.delta.Reset {
			p.resets++
		}
	}
	p.ops.attempted += int(final.Epoch)
	for _, e := range checkEpochs(deltas, final.Epoch) {
		p.ops.fail(e)
	}
	p.ops.check(checkReplay(deltas, final.Plan))
	p.lag, err = planLag(deltas, sent)
	p.ops.check(err)

	if ts != nil {
		ts.mu.Lock()
		p.storeLat, p.handlerLat = ts.storeLat, ts.handlerLat
		ts.mu.Unlock()
	}
	p.snapshots = int(sv.snaps.n.Load())
	p.aggregates = make(map[string]*profile.Combined)
	for _, w := range in.workloadsInBatch() {
		agg, _, err := sv.store.Get(w, ingestConfig)
		if err != nil {
			p.ops.check(fmt.Errorf("reading aggregate %s: %w", w, err))
			continue
		}
		p.aggregates[w] = agg
	}
	closed = true
	if err := sv.close(); err != nil {
		return nil, err
	}
	p.walBytes = dirBytes(dir)
	p.checkAggregates(in)
	return p, nil
}

// batchErr reports a batch that failed, was refused, or came back with a
// shard rejected or replayed (every key is fresh, so a replay is a bug).
func batchErr(i int, shards []client.BatchShard, res []client.BatchResult, err error) error {
	if err != nil {
		return fmt.Errorf("batch %d: %w", i, err)
	}
	if len(res) != len(shards) {
		return fmt.Errorf("batch %d: %d results for %d shards", i, len(res), len(shards))
	}
	for j, r := range res {
		if r.Err != "" || r.Info.Deduped {
			return fmt.Errorf("batch %d shard %d: err %q deduped %v", i, j, r.Err, r.Info.Deduped)
		}
	}
	return nil
}

// checkEpochs returns one error per way the delivered deltas miss "epochs
// exactly 1..final, in order, incrementally": a gap, a duplicate, an
// out-of-order epoch, a reset snapshot, or a missing tail.
func checkEpochs(deltas []received, final uint64) []error {
	var errs []error
	want := uint64(1)
	for _, d := range deltas {
		e := d.delta.Epoch
		switch {
		case d.delta.Reset:
			errs = append(errs, fmt.Errorf("epoch %d arrived as a reset snapshot", e))
		case e < want:
			errs = append(errs, fmt.Errorf("epoch %d delivered again after %d", e, want-1))
			continue
		case e > want:
			errs = append(errs, fmt.Errorf("epochs %d..%d missing", want, e-1))
		}
		want = e + 1
	}
	if want <= final {
		errs = append(errs, fmt.Errorf("epochs %d..%d never delivered", want, final))
	}
	return errs
}

// checkReplay folds the deltas into an empty plan and compares the result
// with the server's full plan.
func checkReplay(deltas []received, plan []api.PlanChange) error {
	replica := make(map[string]api.PlanChange)
	for _, d := range deltas {
		if d.delta.Reset {
			clear(replica)
		}
		for _, c := range d.delta.Changes {
			key := fmt.Sprintf("%s#%d", c.Func, c.ID)
			if c.Class == "none" {
				delete(replica, key)
				continue
			}
			replica[key] = c
		}
	}
	if len(replica) != len(plan) {
		return fmt.Errorf("replayed plan has %d loads, server plan %d", len(replica), len(plan))
	}
	for _, c := range plan {
		key := fmt.Sprintf("%s#%d", c.Func, c.ID)
		r, ok := replica[key]
		if !ok || r.Class != c.Class || r.Stride != c.Stride || r.K != c.K || r.CoverLines != c.CoverLines {
			return fmt.Errorf("replayed plan %s = %+v, server %+v", key, r, c)
		}
	}
	return nil
}

// planLag matches each delta to the batch that minted it and returns the
// time from that batch's send to the delta's receipt. Each batch carries
// exactly one kernel shard and the watcher starts empty, so a delta
// computed after Rounds windows was minted by batch Rounds (1-based).
func planLag(deltas []received, sent []time.Time) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(deltas))
	for _, d := range deltas {
		r := d.delta.Rounds
		if r < 1 || r > len(sent) {
			return out, fmt.Errorf("epoch %d reports %d rounds; only %d batches were sent", d.delta.Epoch, r, len(sent))
		}
		out = append(out, d.at.Sub(sent[r-1]))
	}
	return out, nil
}

// checkAggregates compares every stored aggregate with the offline merge
// of all shards uploaded to it: the pre-written log's and the pass's.
func (p *ingestPass) checkAggregates(in *ingestInputs) {
	shards := make(map[string][]*profile.Combined)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(in.schedule); i++ {
			for _, sh := range in.batch(i, "") {
				shards[sh.Workload] = append(shards[sh.Workload], sh.Profile)
			}
		}
	}
	for _, w := range in.workloadsInBatch() {
		agg, ok := p.aggregates[w]
		if !ok {
			continue // already failed reading it
		}
		want, err := profile.Merge(shards[w]...)
		if err != nil {
			p.ops.check(fmt.Errorf("offline merge %s: %w", w, err))
			continue
		}
		a, err1 := encodeProfile(agg)
		b, err2 := encodeProfile(want)
		if err := errors.Join(err1, err2); err != nil {
			p.ops.check(err)
			continue
		}
		if !bytes.Equal(a, b) {
			p.ops.check(fmt.Errorf("stored aggregate %s differs from the offline merge of its %d shards", w, len(shards[w])))
			continue
		}
		p.ops.check(nil)
	}
}

func encodeProfile(c *profile.Combined) ([]byte, error) {
	var buf bytes.Buffer
	err := profile.DefaultCodec.Encode(&buf, c)
	return buf.Bytes(), err
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of dir's regular files.
func dirBytes(dir string) int64 {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, de := range des {
		if info, err := de.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// runIngest measures the ingest-watch workload.
func runIngest(ctx context.Context, cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, fmt.Sprintf("ingest-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	in, err := makeIngestInputs(cfg.seed, ingestBatches, dir)
	if err != nil {
		return err
	}
	setup := setupSampler{fn: func() (time.Duration, error) {
		total, _, err := ingestSetup(in, filepath.Join(dir, "setup"))
		return total, err
	}}
	if err := setup.sample(); err != nil {
		return err
	}
	var (
		walls, allocs []float64
		rtt, lag      passLatency
		deltas        []float64
		last          *ingestPass
		ops           = newOpLog(nil, 0)
	)
	rep.Passes, err = measureLoop(cfg.seconds, func() error {
		p, err := runIngestPass(ctx, in, filepath.Join(dir, "pass"), nil, 0)
		if err != nil {
			return err
		}
		walls = append(walls, seconds(p.wall))
		allocs = append(allocs, float64(p.alloc)/1e6)
		rtt.add(p.rtt)
		lag.add(p.lag)
		deltas = append(deltas, float64(p.deltas))
		ops.merge(p.ops)
		last = p
		return setup.sample()
	})
	if err != nil {
		return err
	}
	sim, fp, err := aggregateSpeedups(in, last.aggregates)
	if err != nil {
		return err
	}
	if err := checkFingerprint(cfg, fp, ops); err != nil {
		return err
	}
	lsum := rtt.summary()
	rep.Latency = &lsum
	rep.PassWall = walls
	rep.Speedups = speedupLines(sim, ingestRoster)
	rep.Result.Metrics = e2eMetrics(median(walls), setup.median(), median(allocs), ops, lsum, rep.Speedups)
	lagSum := lag.summary()
	rep.Extra = map[string]metric{
		"ingest_shards_per_s":     {float64(ingestBatches*(1+len(ingestRoster))) / median(walls), "1/s"},
		"plan_lag_p50_ms":         {lagSum.P50, "ms"},
		"plan_lag_tail_ms":        {lagSum.Tail, "ms"},
		"plan_lag_tail_pct":       {lagSum.TailPct, "pct"},
		"plan_deltas_per_pass":    {median(deltas), "count"},
		"ingest_batches_per_pass": {ingestBatches, "count"},
		"ingest_rtt_tail_pct":     {lsum.TailPct, "pct"},
		"prewritten_log_records":  {float64(ingestBatches * (1 + len(ingestRoster))), "count"},
	}
	finishOps(rep, ops)
	return nil
}

// aggregateSpeedups closes the loop on the service's product: it builds
// each real workload's prefetched binary from the stored aggregate and
// measures it against the clean binary on the ref input. It returns the
// speedups and the workload's fingerprint, which also covers the profiling
// runs behind the uploaded shards. The drift kernel's shards depend on the
// seed, so the fingerprint leaves them out.
func aggregateSpeedups(in *ingestInputs, aggs map[string]*profile.Combined) (map[string]float64, fingerprint, error) {
	sim := make(map[string]float64)
	fp := make(fingerprint)
	for j, name := range ingestRoster {
		pr := in.realRuns[j]
		fp.add("shard|"+name, "%s lfu_calls=%d processed_refs=%d", runStatsLine(pr.Stats), pr.LFUCalls, pr.ProcessedRefs)
		agg, ok := aggs[name]
		if !ok {
			return nil, nil, fmt.Errorf("no stored aggregate for %s", name)
		}
		w := workloads.Get(name)
		r, err := core.MeasureSpeedup(w, w.Ref(), agg, prefetch.Options{}, machine.Config{})
		if err != nil {
			return nil, nil, err
		}
		sim[name] = r.Speedup
		fp.add("aggregate|"+name, "speedup=%s clean: %s prefetched: %s", ftoa(r.Speedup), runStatsLine(r.Base), runStatsLine(r.Prefetched))
	}
	return sim, fp, nil
}
