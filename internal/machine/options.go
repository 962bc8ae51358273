package machine

import "stridepf/internal/obs"

// Option configures a machine at construction time. Options are applied in
// order, so later options override earlier ones; WithConfig replaces the
// whole configuration and is therefore usually first.
//
// The functional-option constructor replaces the old fieldwise
// machine.Config literals that had drifted across the cmd tools, the
// experiment harness, simcheck and the tests: call sites now say what they
// enable (machine.WithSelfCheck()) instead of which struct fields they
// happen to know about.
type Option func(*Config)

// WithConfig installs cfg wholesale as the base configuration. Layer
// further options after it to adjust individual knobs.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithHWPrefetch attaches the hardware prefetcher model p, observing the
// demand load stream, as a Config.NewHWPrefetch factory that returns p.
func WithHWPrefetch(p HWPrefetcher) Option {
	return func(c *Config) { c.NewHWPrefetch = func() HWPrefetcher { return p } }
}

// WithSelfCheck runs the naive shadow models of the cache hierarchy and
// flat memory in lockstep, cross-checking every access.
func WithSelfCheck() Option {
	return func(c *Config) { c.SelfCheck = true }
}

// WithDisablePrefetch makes OpPrefetch instructions architectural no-ops
// (differential checkers use it to assert prefetch neutrality).
func WithDisablePrefetch() Option {
	return func(c *Config) { c.DisablePrefetch = true }
}

// WithObs attaches a prefetch-effectiveness collector (see package obs).
func WithObs(col *obs.Collector) Option {
	return func(c *Config) { c.Obs = col }
}

// WithDisableBlockCache forces the per-instruction reference interpreter
// even when the fused block-cache fast path would apply. The differential
// checkers run both and compare.
func WithDisableBlockCache() Option {
	return func(c *Config) { c.DisableBlockCache = true }
}
