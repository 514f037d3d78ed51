// Package memo is the repository's one keyed singleflight cache: a
// map from string keys to computed values, each computed at most once
// across concurrent callers, kept under a byte budget with
// least-recently-used eviction.
//
// Four layers memoize through it: the trace cache
// (replay.Cache, one recorded run per workload/predictor pair), the
// serving store's memory tier (serve.Store, decoded cell results in
// front of the on-disk tier), the store's rendered tier (one
// experiment's rendered output and cell list per experiment address)
// and the process-wide memo of policied cells (experiments). Each wraps a Cache with its own metrics and
// byte charge; the concurrency and eviction rules live here only:
//
//   - the first caller of a key runs compute; callers arriving while
//     it runs wait for it and share its value or error;
//   - a waiter stops waiting when its own context is done, and the
//     computation continues for the caller that started it;
//   - a failed computation is not remembered, so the next caller
//     retries;
//   - a stored value is charged the bytes compute reports, and the
//     least recently used entries are evicted until the budget holds;
//     a value larger than the whole budget is evicted at once.
//
// Eviction costs only time: the memoized computations are
// deterministic, so a caller that misses recomputes the same value.
package memo
