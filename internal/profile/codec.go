package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// VersionCurrent is the one on-disk / on-wire format the codec reads and
// writes. Its header records the fine-sampling interval, so a reader can
// reject incompatible profiles before looking at a single summary and
// producers that downsample differently cannot be merged by accident (see
// Merge), and its stride summaries may carry the per-path buckets of the
// "paths" instrumentation scheme (stride.Summary.Paths). Files of the
// earlier versions 1 and 2 are rejected.
const VersionCurrent = 3

// Codec serialises and deserialises combined profiles.
//
// Decode enforces the fine-interval consistency rule that Merge enforces
// across runs, but within a single file and at read time: every summary
// sampled by the runtime must carry the same interval, and that interval
// must match the header. A corrupted or hand-spliced profile therefore
// fails at the I/O boundary instead of skewing a later merge.
type Codec struct{}

// DefaultCodec is the codec the package-level Write/Read/Save/Load helpers
// and the cmd tools use.
var DefaultCodec = Codec{}

// Encode serialises p as JSON.
func (Codec) Encode(w io.Writer, p *Combined) error {
	fi, err := fineInterval(p)
	if err != nil {
		return fmt.Errorf("profile: encode: %w", err)
	}
	ff := fileFormat{
		Version:      VersionCurrent,
		FineInterval: fi,
		Edges:        p.Edge.Edges(),
		Entries:      p.Edge.entries,
		Strides:      p.Stride.Summaries(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// Decode deserialises a combined profile, validating its version and
// fine-interval consistency.
func (Codec) Decode(r io.Reader) (*Combined, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if ff.Version != VersionCurrent {
		return nil, fmt.Errorf("profile: unsupported version %d (want %d)", ff.Version, VersionCurrent)
	}
	ep := NewEdgeProfile()
	for _, e := range ff.Edges {
		ep.Set(e.Key, e.Count)
	}
	for fn, c := range ff.Entries {
		ep.SetEntryCount(fn, c)
	}
	out := &Combined{Edge: ep, Stride: NewStrideProfile(ff.Strides)}
	fi, err := summaryInterval(out)
	if err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if ff.FineInterval != 0 && fi != 0 && ff.FineInterval != fi {
		return nil, fmt.Errorf(
			"profile: decode: header fine interval %d disagrees with summaries sampled at %d",
			ff.FineInterval, fi)
	}
	// Carry the header interval even when no summary records one (a sampled
	// shard whose strides were all evicted): the profile stays incompatible
	// with differently-sampled shards and re-encodes with its interval
	// intact instead of silently degrading to 0.
	out.Interval = ff.FineInterval
	return out, nil
}

// FineInterval returns the fine-sampling interval shared by the profile's
// header (Interval) and runtime-collected stride summaries, or zero when
// neither records one (empty or hand-built profiles). It errors if the
// header and summaries disagree, which can only happen to profiles spliced
// together outside Merge.
func (c *Combined) FineInterval() (int, error) {
	return fineInterval(c)
}

func fineInterval(p *Combined) (int, error) {
	fi, err := summaryInterval(p)
	if err != nil {
		return 0, err
	}
	if p.Interval != 0 {
		if fi != 0 && fi != p.Interval {
			return 0, fmt.Errorf(
				"fine-interval mismatch: header records %d but summaries were sampled at %d",
				p.Interval, fi)
		}
		return p.Interval, nil
	}
	return fi, nil
}

// summaryInterval resolves the interval from the stride summaries alone.
func summaryInterval(p *Combined) (int, error) {
	interval := 0
	for _, s := range p.Stride.Summaries() {
		if s.FineInterval == 0 {
			continue
		}
		if interval == 0 {
			interval = s.FineInterval
		} else if s.FineInterval != interval {
			return 0, fmt.Errorf(
				"fine-interval mismatch: summaries sampled at both %d and %d (load %s#%d)",
				interval, s.FineInterval, s.Key.Func, s.Key.ID)
		}
	}
	return interval, nil
}
