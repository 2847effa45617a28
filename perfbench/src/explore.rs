//! Exploration queries served by `bios-explore`: standard-box queries
//! over the seven BENCH_10 panels, in a balanced seeded order.

use crate::inputs::panel_block;
use crate::stats::{median_of, Latency, LATENCY_GROUP};
use bios_biochem::Analyte;
use bios_explore::{clear_explore_cache, explore, ExploreOutcome, ExploreSpec, PanelContext};
use bios_platform::{ExecPolicy, PanelSpec, TargetSpec};
use bios_units::Molar;
use std::time::Instant;

/// One panel: its name, query and the frontier digest BENCH_10 recorded
/// for it.
pub struct Panel {
    /// BENCH_10 panel name.
    pub name: &'static str,
    /// The standard-box query.
    pub spec: ExploreSpec,
    /// Expected `frontier_digest`.
    pub digest: u64,
}

/// The seven BENCH_10 panels with their recorded digests.
pub fn panels() -> Vec<Panel> {
    let of = |analytes: &[Analyte]| {
        analytes
            .iter()
            .map(|&a| TargetSpec::typical(a))
            .collect::<PanelSpec>()
    };
    let mut tight = PanelSpec::paper_fig4();
    tight.push(TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_micromolar(290.0)));
    let table: [(&'static str, PanelSpec, u64); 7] = [
        (
            "fig4-biointerface",
            PanelSpec::paper_fig4(),
            0xa08a_5a2d_3929_1592,
        ),
        (
            "metabolic-trio",
            of(&[Analyte::Glucose, Analyte::Lactate, Analyte::Cholesterol]),
            0x21d8_61b4_6831_6282,
        ),
        (
            "neuro-pair",
            of(&[Analyte::Glutamate, Analyte::Lactate]),
            0x1408_b343_3461_bc83,
        ),
        (
            "p450-pair",
            of(&[Analyte::Benzphetamine, Analyte::Aminopyrine]),
            0xcb31_0b81_13f3_20e8,
        ),
        ("tight-lod-fig4", tight, 0x1819_96ed_633e_8228),
        (
            "glucose-only",
            of(&[Analyte::Glucose]),
            0xc3a5_8013_4be5_a04b,
        ),
        (
            "oxidase-quartet",
            of(&[
                Analyte::Glucose,
                Analyte::Lactate,
                Analyte::Glutamate,
                Analyte::Cholesterol,
            ]),
            0xd5f3_7ff5_dc71_61db,
        ),
    ];
    table
        .into_iter()
        .map(|(name, panel, digest)| Panel {
            name,
            spec: ExploreSpec::standard(panel),
            digest,
        })
        .collect()
}

/// Runs one cold query: the shard cache is cleared first, outside the
/// returned time.
pub fn cold_query(panel: &Panel, exec: ExecPolicy) -> (ExploreOutcome, f64) {
    clear_explore_cache();
    let t = Instant::now();
    let outcome = explore(&panel.spec, exec).expect("a BENCH_10 panel explores");
    (outcome, t.elapsed().as_secs_f64())
}

/// Builds the panel queries and runs one cold query per panel (the
/// warm-up that fills the LOD memo cache) until `budget_s` seconds have
/// been spent on at least `min_repeats` repetitions, keeping the last
/// set; returns each repetition's wall time and whether every warm-up
/// digest matched.
pub fn timed_setup(
    exec: ExecPolicy,
    min_repeats: usize,
    budget_s: f64,
) -> (Vec<Panel>, Vec<f64>, bool) {
    let mut times = Vec::new();
    let mut correct = true;
    let mut last = Vec::new();
    while times.len() < min_repeats || times.iter().sum::<f64>() < budget_s {
        clear_explore_cache();
        bios_platform::clear_memo_caches();
        let t = Instant::now();
        let set = panels();
        for panel in &set {
            let outcome = explore(&panel.spec, exec).expect("a BENCH_10 panel explores");
            correct &= outcome.frontier_digest == panel.digest;
        }
        times.push(t.elapsed().as_secs_f64());
        last = set;
    }
    (last, times, correct)
}

/// Layer timings of one traced query.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// `PanelContext::for_spec`, seconds.
    pub context_s: f64,
    /// The cold query, seconds.
    pub cold_s: f64,
    /// Warm re-run replaying every shard from the cache, seconds.
    pub warm_s: f64,
    /// Shards the warm re-run replayed.
    pub replayed: u64,
    /// Shards of the band.
    pub shards: u64,
    /// Closed-form class evaluations over all passes.
    pub classes_evaluated: u64,
    /// `points_out` of each pass, in pass order, with the pass name.
    pub points_out: Vec<(String, u64)>,
    /// Points in the space and points statically rejected.
    pub points: u64,
    /// See `points`.
    pub rejected: u64,
    /// Band size.
    pub band: u64,
}

/// What a window of queries observed.
#[derive(Debug, Default)]
pub struct QueryWindow {
    /// Queries run.
    pub queries: u64,
    /// Queries whose frontier digest matched BENCH_10.
    pub correct: u64,
    /// Wall time of each query, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Panel index of each query.
    pub panel_of: Vec<usize>,
    /// Query time of each whole block, seconds.
    pub block_s: Vec<f64>,
    /// Queries per panel index.
    pub per_panel: Vec<u64>,
    /// Per-query layer timings (traced windows only).
    pub traces: Vec<QueryTrace>,
}

impl QueryWindow {
    /// Queries per second of query time: the median over blocks, each
    /// of which runs every panel once.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .block_s
            .iter()
            .map(|s| self.per_panel.len() as f64 / s)
            .collect();
        median_of(&rates)
    }

    /// Queries whose digest matched, over queries run.
    pub fn completed_share(&self) -> f64 {
        self.correct as f64 / self.queries.max(1) as f64
    }

    /// Median and tail of the query time. The median is taken per panel
    /// and then over panels: in a balanced mix that is the mix's median,
    /// without the jumps between neighbouring panels that host noise
    /// causes in a pooled median.
    pub fn latency(&self) -> Option<Latency> {
        let mut latency = Latency::grouped(&self.latencies_ms, LATENCY_GROUP)?;
        let per_panel: Vec<f64> = (0..self.per_panel.len())
            .map(|p| {
                let own: Vec<f64> = self
                    .panel_of
                    .iter()
                    .zip(&self.latencies_ms)
                    .filter(|(&i, _)| i == p)
                    .map(|(_, &ms)| ms)
                    .collect();
                median_of(&own)
            })
            .collect();
        latency.p50 = median_of(&per_panel);
        Some(latency)
    }
}

/// Runs one query of `panel`: cold, with the shard cache cleared first
/// outside the timed region. Traced, it also times the panel context on
/// its own and a warm re-run that replays every shard. Returns whether
/// the digests matched, the query time in seconds, and the trace.
pub fn query(panel: &Panel, exec: ExecPolicy, trace: bool) -> (bool, f64, Option<QueryTrace>) {
    let context_s = if trace {
        let t = Instant::now();
        std::hint::black_box(PanelContext::for_spec(&panel.spec).expect("panel context"));
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let (outcome, secs) = cold_query(panel, exec);
    let ok = outcome.frontier_digest == panel.digest;
    if !trace {
        return (ok, secs, None);
    }
    let t = Instant::now();
    let warm = explore(&panel.spec, exec).expect("warm re-run");
    let warm_s = t.elapsed().as_secs_f64();
    let trace = QueryTrace {
        context_s,
        cold_s: secs,
        warm_s,
        replayed: warm.replayed_shards,
        shards: warm.shard_count,
        classes_evaluated: outcome.reports.iter().map(|r| r.classes_evaluated).sum(),
        points_out: outcome
            .reports
            .iter()
            .map(|r| (r.pass.clone(), r.points_out))
            .collect(),
        points: outcome.total_points,
        rejected: outcome.statically_rejected,
        band: outcome.band.len() as u64,
    };
    (
        ok && warm.frontier_digest == outcome.frontier_digest,
        secs,
        Some(trace),
    )
}

/// Runs whole blocks of the seeded balanced order, starting at block
/// `first_block`, until `end` has passed and at least `min_blocks` ran;
/// returns the window and the next block.
pub fn run(
    panels: &[Panel],
    seed: u64,
    first_block: u64,
    min_blocks: u64,
    end: Instant,
    exec: ExecPolicy,
    trace: bool,
) -> (QueryWindow, u64) {
    let mut w = QueryWindow {
        per_panel: vec![0; panels.len()],
        ..QueryWindow::default()
    };
    let mut block = first_block;
    loop {
        let mut block_s = 0.0;
        for idx in panel_block(seed, block, panels.len()) {
            let (ok, secs, traced) = query(&panels[idx], exec, trace);
            w.queries += 1;
            w.correct += u64::from(ok);
            w.per_panel[idx] += 1;
            block_s += secs;
            w.latencies_ms.push(secs * 1e3);
            w.panel_of.push(idx);
            w.traces.extend(traced);
        }
        w.block_s.push(block_s);
        block += 1;
        if block - first_block >= min_blocks && Instant::now() >= end {
            return (w, block);
        }
    }
}
