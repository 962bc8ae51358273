package server

import (
	"bytes"
	"errors"
	"testing"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

func storeShard(freq int64) *profile.Combined {
	ep := profile.NewEdgeProfile()
	ep.Set(profile.EdgeKey{Func: "main", From: 0, To: 1}, uint64(freq))
	ep.SetEntryCount("main", 1)
	return &profile.Combined{
		Edge: ep,
		Stride: profile.NewStrideProfile([]stride.Summary{{
			Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: freq,
			FineInterval: 1,
			TopStrides:   []lfu.Entry{{Value: 8, Freq: freq}},
		}}),
	}
}

func encodeStoreProfile(t *testing.T, p *profile.Combined) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreGetAliasing is the regression test for Get handing out the live
// aggregate pointer: a caller mutating the returned profile (or a future
// in-place merge pass) must not corrupt the aggregate behind the lock.
func TestStoreGetAliasing(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Upload("197.parser", "cfg", storeShard(10), ""); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("197.parser", "cfg")
	if err != nil {
		t.Fatal(err)
	}
	want := encodeStoreProfile(t, got)

	// Mutate everything reachable from the returned aggregate.
	got.Edge.Set(profile.EdgeKey{Func: "evil", From: 9, To: 9}, 999)
	got.Edge.SetEntryCount("evil", 123)
	for _, sum := range got.Stride.Summaries() {
		sum.TopStrides[0].Freq = -1
		sum.TopStrides[0].Value = -1
	}
	got.Interval = 77

	again, _, err := s.Get("197.parser", "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes := encodeStoreProfile(t, again); !bytes.Equal(gotBytes, want) {
		t.Errorf("mutating a Get result corrupted the stored aggregate:\nbefore:\n%s\nafter:\n%s",
			want, gotBytes)
	}

	// Two Gets must not alias each other either.
	a, _, _ := s.Get("197.parser", "cfg")
	b, _, _ := s.Get("197.parser", "cfg")
	for _, sum := range a.Stride.Summaries() {
		sum.TopStrides[0].Freq = 42424242
	}
	if gotBytes := encodeStoreProfile(t, b); !bytes.Equal(gotBytes, want) {
		t.Error("two Get results share TopStrides backing arrays")
	}
}

// TestUploadLoggedHook pins the write-ahead seam the WAL store builds on:
// log runs only for uploads that will commit, and a failing log leaves the
// aggregate and its idempotency table as they were.
func TestUploadLoggedHook(t *testing.T) {
	s := NewStore()
	calls := 0
	logOK := func() error { calls++; return nil }
	logFail := func() error { calls++; return errors.New("disk full") }

	if _, _, err := s.UploadLogged("w", "c", storeShard(10), "k1", logFail); err == nil {
		t.Fatal("failing log did not fail the upload")
	}
	if _, _, err := s.Get("w", "c"); err == nil {
		t.Fatal("failed log installed an aggregate")
	}
	info, replayed, err := s.UploadLogged("w", "c", storeShard(10), "k1", logOK)
	if err != nil || replayed || info.Version != 1 {
		t.Fatalf("retry after failed log: info=%+v replayed=%v err=%v", info, replayed, err)
	}
	if _, _, err := s.UploadLogged("w", "c", storeShard(20), "k2", logFail); err == nil {
		t.Fatal("failing log did not fail the upload")
	}
	if _, info, _ := s.Get("w", "c"); info.Version != 1 {
		t.Fatalf("failed log bumped the aggregate to version %d", info.Version)
	}
	if calls != 3 {
		t.Fatalf("log called %d times, want 3", calls)
	}

	// Neither a replayed key nor a rejected merge reaches the log.
	if _, replayed, _ := s.UploadLogged("w", "c", storeShard(10), "k1", logOK); !replayed {
		t.Fatal("committed key not replayed")
	}
	bad := storeShard(5)
	sums := bad.Stride.Summaries()
	sums[0].FineInterval = 2
	bad.Stride = profile.NewStrideProfile(sums)
	if _, _, err := s.UploadLogged("w", "c", bad, "k3", logOK); err == nil {
		t.Fatal("fine-interval mismatch accepted")
	}
	if calls != 3 {
		t.Fatalf("log called %d times after replay and rejection, want 3", calls)
	}
}
