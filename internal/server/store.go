package server

import (
	"fmt"
	"sort"
	"sync"

	"stridepf/internal/api"
	"stridepf/internal/profile"
)

// EntryInfo is one stored profile aggregate's info. It is an alias of the
// shared wire type — the shape lives in internal/api, pinned by its golden
// test — kept under this name because the WAL store persists it inside its
// snapshot and log records and the chaos wrappers implement ProfileStore
// against it. Workload and Config key the aggregate (Config names the
// collection setup, e.g. "sample-edge-check", so differently collected
// profiles of one workload stay separate); Version counts accepted
// uploads; Shards is the number of profiles merged in (== Version today,
// but kept separate so a future reset/compact can diverge them);
// FineInterval is the aggregate's fine-sampling interval (0 when the
// profiles never went through the runtime sampler).
type EntryInfo = api.ProfileInfo

// ProfileStore is the aggregate store behind the upload/download/classify
// endpoints. It is an interface so the chaos harness (internal/chaos) can
// wrap the real store with injected transient failures; Store is the real
// implementation. An error whose Temporary() method reports true is served
// as 503 + Retry-After instead of a terminal status.
type ProfileStore interface {
	// Upload merges prof into the (workload, config) aggregate. A non-empty
	// idemKey identifies the upload attempt: retrying a key whose merge
	// already committed replays the recorded result (replayed == true)
	// instead of double-merging the shard.
	Upload(workload, config string, prof *profile.Combined, idemKey string) (info EntryInfo, replayed bool, err error)
	// Get returns the merged aggregate and its info. The returned profile
	// must be safe for the caller to mutate: implementations hand out a
	// deep copy (profile.Combined.Clone), never the live aggregate.
	Get(workload, config string) (*profile.Combined, EntryInfo, error)
	// List returns every aggregate's info sorted by (workload, config).
	List() []EntryInfo
}

// maxIdemKeys bounds the per-aggregate idempotency table; the oldest keys
// fall off first. A retry storm long enough to recycle 4096 keys has long
// since exhausted any sane client's retry budget.
const maxIdemKeys = 4096

// Aggregate is one (workload, config) aggregate's complete state: what
// Export hands out and Restore installs, so a durable store can persist
// the aggregate without re-implementing its merge rules.
type Aggregate struct {
	Info   EntryInfo
	Merged *profile.Combined

	// Idem records the entry info returned for each committed idempotency
	// key, so a client that lost the response to a successful upload can
	// retry without the shard merging twice. IdemOrder is the FIFO
	// eviction order.
	Idem      map[string]EntryInfo
	IdemOrder []string
}

// Store aggregates uploaded stride profiles per (workload, config), the
// networked analogue of running cmd/profmerge over shard files: each upload
// is merged into the existing aggregate under the same fine-interval
// compatibility rule, and the entry's version is bumped so pollers can tell
// when the aggregate changed. It is the only implementation of the merge,
// the idempotency table and its bound; the WAL-backed store (package
// walstore) logs and snapshots one of these. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[string]*Aggregate
}

var _ ProfileStore = (*Store)(nil)

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[string]*Aggregate)}
}

func storeKey(workload, config string) string { return workload + "|" + config }

// Upload merges prof into the (workload, config) aggregate and returns the
// updated entry info. A merge failure (fine-interval mismatch) leaves the
// aggregate unchanged. A repeated non-empty idemKey replays the result of
// the first successful upload with that key.
func (s *Store) Upload(workload, config string, prof *profile.Combined, idemKey string) (EntryInfo, bool, error) {
	return s.UploadLogged(workload, config, prof, idemKey, nil)
}

// UploadLogged is Upload with a write-ahead hook: a non-nil log runs after
// the merge has been validated and before it is installed, so it sees only
// uploads that will commit. It runs under the store's lock, so no other
// upload interleaves between validation, log and install; log must not
// call back into the Store. If log fails, the aggregate and its
// idempotency table stay unchanged and the error is returned. A replayed
// idempotency key does not call log.
func (s *Store) UploadLogged(workload, config string, prof *profile.Combined, idemKey string, log func() error) (EntryInfo, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := storeKey(workload, config)
	a := s.entries[key]
	if a == nil {
		a = &Aggregate{
			Info: EntryInfo{Workload: workload, Config: config},
			Idem: make(map[string]EntryInfo),
		}
	}
	if idemKey != "" {
		if rec, ok := a.Idem[idemKey]; ok {
			return rec, true, nil
		}
	}
	merged, err := profile.Merge(a.Merged, prof)
	if err != nil {
		return EntryInfo{}, false, err
	}
	fi, err := merged.FineInterval()
	if err != nil {
		return EntryInfo{}, false, err
	}
	if log != nil {
		if err := log(); err != nil {
			return EntryInfo{}, false, err
		}
	}
	a.Merged = merged
	a.Info.Version++
	a.Info.Shards++
	a.Info.FineInterval = fi
	if idemKey != "" {
		// Only committed merges are recorded: a failed attempt must stay
		// retryable under the same key.
		a.Idem[idemKey] = a.Info
		a.IdemOrder = append(a.IdemOrder, idemKey)
		if len(a.IdemOrder) > maxIdemKeys {
			delete(a.Idem, a.IdemOrder[0])
			a.IdemOrder = a.IdemOrder[1:]
		}
	}
	s.entries[key] = a
	return a.Info, false, nil
}

// Export runs fn under the store's lock with every aggregate's state,
// ordered by storage key (workload + "|" + config). The state is the
// store's own, not a copy, so that a snapshot of thousands of idempotency
// keys costs no extra allocation: fn must not modify it, keep it after
// returning, or call back into the Store.
func (s *Store) Export(fn func([]Aggregate) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	aggs := make([]Aggregate, len(keys))
	for i, k := range keys {
		aggs[i] = *s.entries[k]
	}
	return fn(aggs)
}

// Restore installs aggregates previously returned by Export, replacing any
// aggregate with the same (workload, config). The store takes ownership of
// their profiles, maps and slices.
func (s *Store) Restore(aggs []Aggregate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range aggs {
		if a.Idem == nil {
			a.Idem = make(map[string]EntryInfo)
		}
		s.entries[storeKey(a.Info.Workload, a.Info.Config)] = &a
	}
}

// Get returns the merged aggregate and its info. The returned profile is a
// deep copy: callers may mutate it (or feed it to an in-place pass) without
// corrupting the aggregate behind the store's lock.
func (s *Store) Get(workload, config string) (*profile.Combined, EntryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.entries[storeKey(workload, config)]
	if a == nil {
		return nil, EntryInfo{}, fmt.Errorf("server: no profile for workload %q config %q", workload, config)
	}
	return a.Merged.Clone(), a.Info, nil
}

// List returns every aggregate's info sorted by (workload, config).
func (s *Store) List() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.entries))
	for _, a := range s.entries {
		out = append(out, a.Info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Config < out[j].Config
	})
	return out
}
