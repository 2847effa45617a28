//! Content-hash memoization of BIST self-test traces.
//!
//! `ReadoutChain::self_test_response` runs with a *fixed* protocol seed,
//! so a given (possibly faulted) chain always produces the same figure. A
//! fault-matrix campaign re-derives the same faulted-chain response on
//! every one of its ~150 sessions. (The commissioning noise reference
//! depends only on the fault-free chain, so each `Platform` keeps that
//! one itself.)
//!
//! The cache keys on the *content* of the inputs — the chain's
//! [`content_hash`](bios_afe::ReadoutChain::content_hash) plus the exact
//! bit patterns of `dt`/`window`/`seed` — so a hit can only ever return
//! the value the miss path would have computed. Only successful results
//! are cached; errors always re-run. The cache and its hit/miss counters
//! live in one [`Memo`]; production code uses a single process-global
//! instance, mutex-guarded, capped (wholesale clear on overflow, like the
//! solver cache), and clearable via [`clear_memo_caches`] so benchmarks
//! can time cold paths honestly. Tests that assert exact counts use
//! private instances, so no other test's traffic can reach their
//! counters.
//!
//! `predict_lod` is not memoized: its closed form costs less than a
//! locked map lookup, and far less once two threads contend for the lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bios_afe::{AfeError, ReadoutChain};
use bios_units::{Amps, Seconds};

/// Entries before a wholesale clear (traces are a few dozen distinct keys
/// in realistic workloads; the cap only guards pathological key churn).
const CACHE_CAP: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TraceKey {
    chain: u64,
    dt_bits: u64,
    window_bits: u64,
    seed: u64,
}

/// The self-test trace cache with its hit/miss counters.
#[derive(Debug)]
pub(crate) struct Memo {
    traces: Mutex<BTreeMap<TraceKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The process-wide memo every production call goes through.
static GLOBAL: Memo = Memo::new();

impl Memo {
    pub(crate) const fn new() -> Self {
        Self {
            traces: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached value under `key`, or `compute()` entered under it on a
    /// miss. Only `Ok` results are cached.
    fn get_or_compute<E>(
        &self,
        key: TraceKey,
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        if let Ok(cache) = self.traces.lock() {
            if let Some(&v) = cache.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        if let Ok(mut cache) = self.traces.lock() {
            if cache.len() >= CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, value);
        }
        Ok(value)
    }

    /// Memoized [`ReadoutChain::self_test_response`]. Bit-identical to the
    /// direct call: the trace is deterministic in `(chain, dt, window,
    /// seed)` and the cache key captures all four exactly.
    pub(crate) fn self_test_response(
        &self,
        chain: &ReadoutChain,
        dt: Seconds,
        window: Seconds,
        seed: u64,
    ) -> Result<Amps, AfeError> {
        let key = TraceKey {
            chain: chain.content_hash(),
            dt_bits: dt.value().to_bits(),
            window_bits: window.value().to_bits(),
            seed,
        };
        self.get_or_compute(key, || {
            chain
                .self_test_response(dt, window, seed)
                .map(|a| a.value())
        })
        .map(Amps::new)
    }

    /// Empties the cache and zeroes the counters.
    pub(crate) fn clear(&self) {
        if let Ok(mut c) = self.traces.lock() {
            c.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// `(hits, misses)` since the last [`Memo::clear`].
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Memoized [`ReadoutChain::self_test_response`] through the global memo.
pub(crate) fn self_test_response(
    chain: &ReadoutChain,
    dt: Seconds,
    window: Seconds,
    seed: u64,
) -> Result<Amps, AfeError> {
    GLOBAL.self_test_response(chain, dt, window, seed)
}

/// Empties the self-test trace cache and zeroes the hit/miss counters.
/// Benchmarks call this between runs so cold-path timings stay honest.
pub fn clear_memo_caches() {
    GLOBAL.clear();
}

/// `(hits, misses)` of the self-test trace cache since the last
/// [`clear_memo_caches`].
pub fn memo_stats() -> (u64, u64) {
    GLOBAL.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_afe::{ChainConfig, CurrentRange};

    fn chain() -> ReadoutChain {
        ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase()).expect("paper config"))
    }

    #[test]
    fn memoized_trace_matches_direct_call() {
        let memo = Memo::new();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        let direct = c.self_test_response(dt, window, 7).expect("direct");
        let first = memo
            .self_test_response(&c, dt, window, 7)
            .expect("miss path");
        let second = memo
            .self_test_response(&c, dt, window, 7)
            .expect("hit path");
        assert_eq!(direct.value().to_bits(), first.value().to_bits());
        assert_eq!(direct.value().to_bits(), second.value().to_bits());
        let (hits, misses) = memo.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn distinct_seeds_do_not_collide() {
        let memo = Memo::new();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        // Different seeds, windows and chains are distinct cache keys:
        // each first call is a miss, never a (wrong) hit.
        let a = memo.self_test_response(&c, dt, window, 1).expect("seed 1");
        let _ = memo.self_test_response(&c, dt, window, 2).expect("seed 2");
        let _ = memo
            .self_test_response(&c, dt, Seconds::new(4.0), 1)
            .expect("window");
        let chopped = ReadoutChain::new(c.config().with_chopper());
        let _ = memo
            .self_test_response(&chopped, dt, window, 1)
            .expect("chain");
        assert_eq!(memo.stats(), (0, 4), "four distinct keys, four misses");
        let a_again = memo
            .self_test_response(&c, dt, window, 1)
            .expect("seed 1 again");
        assert_eq!(a.value().to_bits(), a_again.value().to_bits());
        assert_eq!(memo.stats(), (1, 4), "repeat is a hit");
    }

    #[test]
    fn clear_resets_counters_and_forces_recompute() {
        let memo = Memo::new();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        let _ = memo.self_test_response(&c, dt, window, 3);
        let _ = memo.self_test_response(&c, dt, window, 3);
        memo.clear();
        assert_eq!(memo.stats(), (0, 0));
        let _ = memo.self_test_response(&c, dt, window, 3);
        assert_eq!(memo.stats(), (0, 1), "recompute after clear is a miss");
    }
}
