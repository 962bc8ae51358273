package profile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/stride"
)

func codecFixture(fi int) *Combined {
	return mkCombined(10, 3, stride.Summary{
		Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: 10, FineInterval: fi,
		TopStrides: []lfu.Entry{{Value: 8, Freq: 10}},
	})
}

func TestCodecCurrentRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultCodec.Encode(&buf, codecFixture(4)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 3`) {
		t.Errorf("default codec did not write version 3:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"fineInterval": 4`) {
		t.Errorf("header missing fine interval:\n%s", buf.String())
	}
	got, err := DefaultCodec.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := got.FineInterval(); fi != 4 {
		t.Errorf("fine interval = %d, want 4", fi)
	}
	if got.Edge.Count(EdgeKey{Func: "main", From: 0, To: 1}) != 10 {
		t.Error("edge count lost in round trip")
	}
}

// TestCodecPathBuckets: per-path buckets round-trip.
func TestCodecPathBuckets(t *testing.T) {
	p := mkCombined(10, 3, stride.Summary{
		Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: 10, FineInterval: 1,
		TopStrides: []lfu.Entry{{Value: 8, Freq: 10}},
		Paths: []stride.PathSummary{
			{ID: 0, TotalStrides: 6, Processed: 6, TopStrides: []lfu.Entry{{Value: 8, Freq: 6}}},
			{ID: 3, TotalStrides: 4, Processed: 4, TopStrides: []lfu.Entry{{Value: 8, Freq: 4}}},
		},
	})
	var buf bytes.Buffer
	if err := DefaultCodec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := DefaultCodec.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.Stride.Lookup(machine.LoadKey{Func: "main", ID: 1})
	if !ok || len(s.Paths) != 2 || s.Paths[1].ID != 3 || s.Paths[1].TotalStrides != 4 {
		t.Errorf("path buckets lost in round trip: %+v", s.Paths)
	}
}

// TestCodecLegacyWriteAndRead pins what is left of the retired v1 format:
// the codec never writes it, and a well-formed v1 file is refused.
func TestCodecLegacyWriteAndRead(t *testing.T) {
	checkRetiredVersion(t, 1,
		`{"version": 1, "edges": [{"key": {"func": "main", "from": 0, "to": 1}, "count": 10}], "strides": []}`)
}

// TestCodecV2WriteAndRead pins what is left of the retired v2 format: the
// codec never writes it, and a well-formed v2 file is refused.
func TestCodecV2WriteAndRead(t *testing.T) {
	checkRetiredVersion(t, 2,
		`{"version": 2, "fineInterval": 4, "edges": [{"key": {"func": "main", "from": 0, "to": 1}, "count": 10}], "strides": []}`)
}

// checkRetiredVersion asserts that encoding writes the current version
// rather than version v, and that src, a file of version v, fails to
// decode with an unsupported-version error.
func checkRetiredVersion(t *testing.T, v int, src string) {
	t.Helper()
	var buf bytes.Buffer
	if err := DefaultCodec.Encode(&buf, codecFixture(4)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), fmt.Sprintf(`"version": %d`, v)) {
		t.Errorf("codec wrote retired version %d:\n%s", v, buf.String())
	}
	if _, err := Read(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("decoding %s: err = %v, want unsupported version", src, err)
	}
}

func TestCodecRejectsUnknownVersion(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version": 9, "edges": [], "strides": []}`)); err == nil {
		t.Fatal("decoding version 9 succeeded, want error")
	}
}

// TestCodecHeaderIntervalSurvivesEvictedSummaries is the regression test
// for the header interval being dropped when no summary carries one: a
// sampled shard whose strides were all evicted must round-trip with its
// interval intact and must still refuse to merge with a differently-sampled
// shard.
func TestCodecHeaderIntervalSurvivesEvictedSummaries(t *testing.T) {
	src := `{
  "version": 3,
  "fineInterval": 4,
  "edges": [{"key": {"func": "main", "from": 0, "to": 1}, "count": 9}],
  "strides": []
}`
	got, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != 4 {
		t.Errorf("decoded header interval = %d, want 4", got.Interval)
	}
	if fi, err := got.FineInterval(); err != nil || fi != 4 {
		t.Errorf("FineInterval() = %d, %v, want 4", fi, err)
	}

	// Re-encoding must keep the header interval, not degrade it to 0.
	var buf bytes.Buffer
	if err := DefaultCodec.Encode(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"fineInterval": 4`) {
		t.Errorf("re-encoded header dropped the interval:\n%s", buf.String())
	}
	again, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Interval != 4 {
		t.Errorf("second round trip lost the interval: %d", again.Interval)
	}

	// Merging with a shard sampled at a different interval must fail even
	// though the evicted shard has no summaries of its own.
	other := codecFixture(8)
	if _, err := Merge(got, other); err == nil {
		t.Fatal("merging header-interval-4 shard with interval-8 shard succeeded, want error")
	}
	// And with a matching interval it must succeed and keep the interval.
	match := codecFixture(4)
	m, err := Merge(got, match)
	if err != nil {
		t.Fatalf("merging compatible shards: %v", err)
	}
	if fi, _ := m.FineInterval(); fi != 4 {
		t.Errorf("merged interval = %d, want 4", fi)
	}
}

// A header interval that disagrees with the summaries marks a hand-spliced
// profile; FineInterval (and thus Merge and Encode) must reject it.
func TestFineIntervalHeaderSummaryDisagree(t *testing.T) {
	p := codecFixture(4)
	p.Interval = 8
	if _, err := p.FineInterval(); err == nil {
		t.Fatal("FineInterval with header 8 over interval-4 summaries succeeded, want error")
	}
	if err := DefaultCodec.Encode(&bytes.Buffer{}, p); err == nil {
		t.Fatal("encoding a header/summary disagreement succeeded, want error")
	}
	if _, err := Merge(p, nil); err == nil {
		t.Fatal("merging a header/summary disagreement succeeded, want error")
	}
}

func TestCodecDecodeFineIntervalMismatch(t *testing.T) {
	// Summaries sampled at different intervals can only appear in a file
	// spliced together by hand; the decoder must reject it.
	src := `{
  "version": 3,
  "fineInterval": 1,
  "edges": [],
  "strides": [
    {"key": {"func": "main", "id": 1}, "fineInterval": 1},
    {"key": {"func": "main", "id": 2}, "fineInterval": 4}
  ]
}`
	if _, err := Read(strings.NewReader(src)); err == nil ||
		!strings.Contains(err.Error(), "fine-interval mismatch") {
		t.Fatalf("err = %v, want fine-interval mismatch", err)
	}
	// A header that disagrees with consistent summaries is also rejected.
	src2 := `{
  "version": 3,
  "fineInterval": 8,
  "edges": [],
  "strides": [{"key": {"func": "main", "id": 1}, "fineInterval": 4}]
}`
	if _, err := Read(strings.NewReader(src2)); err == nil {
		t.Fatal("decoding header/summary interval disagreement succeeded, want error")
	}
}
