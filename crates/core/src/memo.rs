//! Content-hash memoization for repeated deterministic computations.
//!
//! Two families of work are recomputed verbatim across sessions and
//! exploration runs:
//!
//! * **Self-test traces** — `ReadoutChain::self_test_response` runs with
//!   a *fixed* protocol seed, so a given (possibly faulted) chain always
//!   produces the same figure. A fault-matrix campaign re-derives the
//!   same faulted-chain response on every one of its ~150 sessions. (The
//!   commissioning noise reference depends only on the fault-free chain,
//!   so each `Platform` keeps that one itself.)
//! * **LOD predictions** — `predict_lod(target, point)` is a pure function
//!   of its arguments; exploration calls it once per `(target, point)`
//!   pair, and repeated exploration (parameter sweeps, benches) repeats
//!   the whole grid.
//!
//! Both caches key on the *content* of the inputs — the chain's
//! [`content_hash`](bios_afe::ReadoutChain::content_hash) plus the exact
//! bit patterns of `dt`/`window`/`seed` for self-tests, and the full
//! `(Analyte, DesignPoint)` value for LODs — so a hit can only ever return
//! the value the miss path would have computed. Only successful results
//! are cached; errors always re-run. Caches are process-global,
//! mutex-guarded, capped (wholesale clear on overflow, like the solver
//! cache), and clearable via [`clear_memo_caches`] so benchmarks can time
//! cold paths honestly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use bios_afe::{AfeError, ReadoutChain};
use bios_biochem::Analyte;
use bios_units::{Amps, Molar, Seconds};

use crate::explore::DesignPoint;

/// Entries per cache before a wholesale clear (traces and LODs are a few
/// dozen distinct keys in realistic workloads; the cap only guards
/// pathological key churn).
const CACHE_CAP: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TraceKey {
    chain: u64,
    dt_bits: u64,
    window_bits: u64,
    seed: u64,
}

fn trace_cache() -> &'static Mutex<BTreeMap<TraceKey, f64>> {
    static CACHE: OnceLock<Mutex<BTreeMap<TraceKey, f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lod_cache() -> &'static Mutex<BTreeMap<(Analyte, DesignPoint), f64>> {
    static CACHE: OnceLock<Mutex<BTreeMap<(Analyte, DesignPoint), f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Memoized [`ReadoutChain::self_test_response`]. Bit-identical to the
/// direct call: the trace is deterministic in `(chain, dt, window, seed)`
/// and the cache key captures all four exactly.
pub(crate) fn self_test_response(
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
    if let Ok(cache) = trace_cache().lock() {
        if let Some(&v) = cache.get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(Amps::new(v));
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let value = chain.self_test_response(dt, window, seed)?;
    if let Ok(mut cache) = trace_cache().lock() {
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, value.value());
    }
    Ok(value)
}

/// Memoized wrapper used by [`crate::explore::predict_lod`]. `compute`
/// runs only on a miss; only `Ok` results enter the cache.
pub(crate) fn predict_lod_cached<E>(
    target: Analyte,
    point: &DesignPoint,
    compute: impl FnOnce() -> Result<Molar, E>,
) -> Result<Molar, E> {
    let key = (target, *point);
    if let Ok(cache) = lod_cache().lock() {
        if let Some(&v) = cache.get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(Molar::new(v));
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let value = compute()?;
    if let Ok(mut cache) = lod_cache().lock() {
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, value.value());
    }
    Ok(value)
}

/// Empties both memo caches (self-test traces and LOD predictions) and
/// zeroes the hit/miss counters. Benchmarks call this between runs so
/// cold-path timings stay honest.
pub fn clear_memo_caches() {
    if let Ok(mut c) = trace_cache().lock() {
        c.clear();
    }
    if let Ok(mut c) = lod_cache().lock() {
        c.clear();
    }
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// `(hits, misses)` across both memo caches since the last
/// [`clear_memo_caches`].
pub fn memo_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
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
        clear_memo_caches();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        let direct = c.self_test_response(dt, window, 7).expect("direct");
        let first = self_test_response(&c, dt, window, 7).expect("miss path");
        let second = self_test_response(&c, dt, window, 7).expect("hit path");
        assert_eq!(direct.value().to_bits(), first.value().to_bits());
        assert_eq!(direct.value().to_bits(), second.value().to_bits());
        let (hits, misses) = memo_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn distinct_seeds_do_not_collide() {
        clear_memo_caches();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        // Different seeds, windows and chains are distinct cache keys:
        // each first call is a miss, never a (wrong) hit.
        let a = self_test_response(&c, dt, window, 1).expect("seed 1");
        let _ = self_test_response(&c, dt, window, 2).expect("seed 2");
        let _ = self_test_response(&c, dt, Seconds::new(4.0), 1).expect("window");
        let chopped = ReadoutChain::new(c.config().with_chopper());
        let _ = self_test_response(&chopped, dt, window, 1).expect("chain");
        assert_eq!(memo_stats(), (0, 4), "four distinct keys, four misses");
        let a_again = self_test_response(&c, dt, window, 1).expect("seed 1 again");
        assert_eq!(a.value().to_bits(), a_again.value().to_bits());
        assert_eq!(memo_stats(), (1, 4), "repeat is a hit");
    }

    #[test]
    fn clear_resets_counters_and_forces_recompute() {
        clear_memo_caches();
        let c = chain();
        let dt = Seconds::new(0.1);
        let window = Seconds::new(2.0);
        let _ = self_test_response(&c, dt, window, 3);
        let _ = self_test_response(&c, dt, window, 3);
        clear_memo_caches();
        assert_eq!(memo_stats(), (0, 0));
        let _ = self_test_response(&c, dt, window, 3);
        assert_eq!(memo_stats(), (0, 1), "recompute after clear is a miss");
    }
}
