package walstore_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"stridepf/internal/profile"
	"stridepf/internal/server"
	"stridepf/internal/walstore"
)

// contractStep is one upload of the store-contract script. wantReplayed
// and wantErr pin the contract itself; the differential check then demands
// the WAL-backed store return exactly what the in-memory store returned.
type contractStep struct {
	workload     string
	shard        *profile.Combined
	key          string
	wantReplayed bool
	wantErr      bool
}

// mismatchedShard is walShard(seq) resampled at fine interval 8: it cannot
// merge into an aggregate of interval-4 shards.
func mismatchedShard(seq int) *profile.Combined {
	p := walShard(seq)
	sums := p.Stride.Summaries()
	for i := range sums {
		sums[i].FineInterval = 8
	}
	p.Stride = profile.NewStrideProfile(sums)
	return p
}

// TestStoreContract runs one upload script against server.NewStore() and a
// walstore.Store, and after every phase closes and reopens the WAL store so
// the rest of the script runs on recovered state. At every step the two
// stores must agree on (info, replayed, err != nil); after every phase
// their aggregates must be byte-identical.
func TestStoreContract(t *testing.T) {
	const fifoKeys = 4097 // one past the per-aggregate idempotency bound
	fifo := make([]contractStep, 0, fifoKeys+2)
	for i := 1; i <= fifoKeys; i++ {
		fifo = append(fifo, contractStep{workload: "fifo", shard: walShard(i), key: fmt.Sprintf("f-%d", i)})
	}
	phases := []struct {
		name  string
		steps []contractStep
	}{
		{"fresh-keys", []contractStep{
			{workload: "A", shard: walShard(1), key: "k1"},
			{workload: "A", shard: walShard(2), key: "k2"},
			{workload: "A", shard: walShard(3)},
		}},
		{"replayed-key", []contractStep{
			{workload: "A", shard: walShard(1), key: "k1", wantReplayed: true},
			{workload: "A", shard: walShard(9), key: "k2", wantReplayed: true},
		}},
		{"mismatch-stays-retryable", []contractStep{
			{workload: "A", shard: mismatchedShard(4), key: "k4", wantErr: true},
			{workload: "A", shard: mismatchedShard(4), key: "k4", wantErr: true},
			{workload: "A", shard: walShard(4), key: "k4"},
			{workload: "A", shard: walShard(4), key: "k4", wantReplayed: true},
		}},
		{"same-key-two-aggregates", []contractStep{
			{workload: "B", shard: walShard(5), key: "k1"},
			{workload: "B", shard: walShard(6), key: "k1", wantReplayed: true},
			{workload: "A", shard: walShard(6), key: "k1", wantReplayed: true},
		}},
		{"fifo-fill", fifo},
		{"fifo-evicted", []contractStep{
			{workload: "fifo", shard: walShard(2), key: "f-2", wantReplayed: true},
			{workload: "fifo", shard: walShard(1), key: "f-1"},
			{workload: "fifo", shard: walShard(1), key: "f-1", wantReplayed: true},
		}},
	}

	dir := t.TempDir()
	// SnapshotEvery 1000 puts snapshots inside the FIFO phase, so recovery
	// restores the idempotency table from a snapshot plus a WAL tail.
	opts := quietOpts(1<<20, 1000)
	mem := server.NewStore()
	wal, err := walstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { wal.Close() }()

	for _, ph := range phases {
		for i, st := range ph.steps {
			mi, mr, merr := mem.Upload(st.workload, testConfig, st.shard, st.key)
			if mr != st.wantReplayed || (merr != nil) != st.wantErr {
				t.Fatalf("%s step %d: in-memory store replayed=%v err=%v, want replayed=%v err=%v",
					ph.name, i, mr, merr, st.wantReplayed, st.wantErr)
			}
			wi, wr, werr := wal.Upload(st.workload, testConfig, st.shard, st.key)
			if wi != mi || wr != mr || (werr != nil) != (merr != nil) {
				t.Fatalf("%s step %d: walstore (%+v, %v, %v) != in-memory (%+v, %v, %v)",
					ph.name, i, wi, wr, werr, mi, mr, merr)
			}
		}
		checkSameAggregates(t, ph.name+" live", mem, wal)
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		if wal, err = walstore.Open(dir, opts); err != nil {
			t.Fatalf("%s: reopen: %v", ph.name, err)
		}
		checkSameAggregates(t, ph.name+" reopened", mem, wal)
	}

	// The eviction really happened: the retried f-1 merged a second time.
	if _, info, _ := mem.Get("fifo", testConfig); info.Shards != fifoKeys+1 {
		t.Fatalf("fifo aggregate holds %d shards, want %d", info.Shards, fifoKeys+1)
	}
}

// checkSameAggregates asserts both stores list the same aggregates and
// hold byte-identical merged profiles for each.
func checkSameAggregates(t *testing.T, when string, want, got server.ProfileStore) {
	t.Helper()
	list := want.List()
	if gl := got.List(); !reflect.DeepEqual(gl, list) {
		t.Fatalf("%s: List %+v, want %+v", when, gl, list)
	}
	for _, info := range list {
		wp, _, err := want.Get(info.Workload, info.Config)
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := got.Get(info.Workload, info.Config)
		if err != nil {
			t.Fatalf("%s: %s: %v", when, info.Workload, err)
		}
		if !bytes.Equal(encodeP(t, gp), encodeP(t, wp)) {
			t.Fatalf("%s: %s aggregate bytes differ", when, info.Workload)
		}
	}
}

// TestConcurrentUploadsReadsSnapshots drives uploads, reads and snapshots
// from several goroutines at once (run under -race): reads go straight to
// the in-memory store while uploads and snapshots hold the log's lock.
func TestConcurrentUploadsReadsSnapshots(t *testing.T) {
	const writers, perWriter = 3, 20
	s, err := walstore.Open(t.TempDir(), quietOpts(512, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if _, _, err := s.Upload(fmt.Sprintf("w%d", w), testConfig, walShard(i), fmt.Sprint(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i++ {
			for _, info := range s.List() {
				if _, _, err := s.Get(info.Workload, info.Config); err != nil {
					t.Error(err)
				}
			}
			if err := s.Snapshot(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if got := s.LastSeq(); got != writers*perWriter {
		t.Fatalf("LastSeq = %d, want %d", got, writers*perWriter)
	}
}
