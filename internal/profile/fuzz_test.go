package profile

import (
	"bytes"
	"testing"
)

// fuzzSeeds renders the codec fixture, plus a copy relabelled with the
// retired version 1 as a rejection input, so the fuzzer starts from
// well-formed inputs and mutates toward the interesting edges (truncated
// headers, version skew, corrupt counters) instead of spending its budget
// rediscovering the JSON envelope.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var buf bytes.Buffer
	if err := DefaultCodec.Encode(&buf, codecFixture(4)); err != nil {
		f.Fatal(err)
	}
	legacy := bytes.Replace(buf.Bytes(), []byte(`"version": 3`), []byte(`"version": 1`), 1)
	seeds := [][]byte{legacy, bytes.Clone(buf.Bytes())}
	var empty bytes.Buffer
	if err := DefaultCodec.Encode(&empty, &Combined{Edge: NewEdgeProfile(), Stride: NewStrideProfile(nil)}); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, bytes.Clone(empty.Bytes()))
	return seeds
}

// FuzzCodecDecode: Decode must never panic, whatever bytes arrive —
// truncated uploads, corrupt shards, version skew, hostile JSON. It may
// only return an error. Anything that decodes cleanly must survive an
// encode/decode round trip, pinning the "decode output is always
// re-encodable" invariant the server's store depends on.
func FuzzCodecDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Truncations of valid encodings are the profile of a cut
		// connection; seed a few so the corpus covers them from run zero.
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:1+len(seed)*3/4])
	}
	f.Add([]byte(`{"version": 2}`))
	f.Add([]byte(`{"version": 1, "edges": null, "strides": null}`))
	f.Add([]byte(`{"version": 2, "fineInterval": -1, "edges": [], "strides": []}`))
	f.Add([]byte(`{"version": 9, "edges": [], "strides": []}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DefaultCodec.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if p == nil || p.Edge == nil || p.Stride == nil {
			t.Fatalf("Decode returned nil components without error: %+v", p)
		}
		// Accepted inputs must re-encode and decode to something that
		// re-encodes identically (canonical form is a fixed point).
		var buf bytes.Buffer
		if err := DefaultCodec.Encode(&buf, p); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		p2, err := DefaultCodec.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var buf2 bytes.Buffer
		if err := DefaultCodec.Encode(&buf2, p2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("encode is not a fixed point:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
		}
	})
}
