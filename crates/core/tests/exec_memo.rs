//! Edge cases of the deterministic parallel engine and the self-test
//! memo, exercised through the crate's public API only.
//!
//! Every test that touches `ADVDIAG_THREADS` sets it to the same value
//! (`1`): the engine reads the variable once per process through a
//! `OnceLock`, and integration tests share one process.

use bios_afe::{Fault, FaultKind, FaultPlan};
use bios_biochem::Analyte;
use bios_platform::{
    clear_memo_caches, memo_stats, par_map, try_par_map, ExecPolicy, PanelSpec, PlatformBuilder,
    SessionOptions, SessionReport,
};
use bios_units::Molar;

/// Pins the env override before the engine's `OnceLock` first resolves it.
fn force_single_thread() {
    std::env::set_var("ADVDIAG_THREADS", "1");
}

#[test]
fn env_override_forces_sequential_auto_policy() {
    force_single_thread();
    assert_eq!(
        ExecPolicy::Auto.threads_for(100),
        1,
        "ADVDIAG_THREADS=1 must win over available parallelism"
    );
    // The sequential path must still produce the reference output.
    let items: Vec<u64> = (0..64).collect();
    let f = |i: usize, x: &u64| (i as u64) ^ (x << 1);
    let reference: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    assert_eq!(par_map(ExecPolicy::Auto, &items, f), reference);
}

#[test]
fn empty_inputs_yield_empty_outputs_under_every_policy() {
    force_single_thread();
    let empty: Vec<u32> = Vec::new();
    for policy in [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(8),
        ExecPolicy::Auto,
    ] {
        assert!(par_map(policy, &empty, |_, x| *x).is_empty());
        let ok: Result<Vec<u32>, ()> = try_par_map(policy, &empty, |_, x| Ok(*x));
        assert_eq!(ok, Ok(Vec::new()));
    }
}

#[test]
fn try_par_map_surfaces_an_error_at_index_zero() {
    force_single_thread();
    let items: Vec<i32> = (0..40).collect();
    let out: Result<Vec<i32>, usize> = try_par_map(ExecPolicy::Threads(4), &items, |i, x| {
        if i == 0 || *x == 25 {
            Err(i)
        } else {
            Ok(*x)
        }
    });
    assert_eq!(
        out,
        Err(0),
        "index 0 is the lowest-index error and must win"
    );
}

/// One fig-4 session with a mild fouling fault on the first working
/// electrode: its BIST grades the faulted chain against the fault-free
/// one, through the self-test trace memo.
fn faulted_session() -> SessionReport {
    let platform = PlatformBuilder::new(PanelSpec::paper_fig4())
        .build()
        .expect("paper panel builds");
    let sample = [
        (Analyte::Glucose, Molar::from_millimolar(3.0)),
        (Analyte::Lactate, Molar::from_millimolar(1.0)),
    ];
    let plan = FaultPlan::new(5).with_fault(
        0,
        Fault::immediate(FaultKind::Fouling, 0.2).expect("valid fault"),
    );
    let options = SessionOptions::default()
        .with_fault_plan(plan)
        .with_exec(ExecPolicy::Sequential);
    platform
        .run_session_with(&sample, 2011, &options)
        .expect("session")
}

#[test]
fn clear_memo_caches_resets_counters_and_forces_recompute() {
    clear_memo_caches();
    assert_eq!(memo_stats(), (0, 0), "clear must zero the counters");

    let first = faulted_session();
    let (h0, m0) = memo_stats();
    assert!(m0 > 0, "a cold session's self-tests miss");

    let second = faulted_session();
    let (h1, m1) = memo_stats();
    assert_eq!(m1, m0, "a repeat session adds no miss");
    assert_eq!(h1, h0 + h0 + m0, "every self-test of a repeat session hits");
    assert_eq!(first, second, "a hit returns the exact cached value");

    clear_memo_caches();
    assert_eq!(memo_stats(), (0, 0));
    let third = faulted_session();
    assert_eq!(
        memo_stats(),
        (h0, m0),
        "after a clear the same keys must recompute (miss, not hit)"
    );
    assert_eq!(first, third, "recompute reproduces the original bits");
}
