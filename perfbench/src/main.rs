//! `perfbench` — end-to-end and per-layer benchmark for the two units the
//! platform serves: a Fig-4 multi-target session through `bios-server`
//! and a design-space exploration query through `bios-explore`.
//!
//! ```text
//! perfbench --workload <fleet_heavy|fleet_chaos|explore_panels>
//!           --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
//! it start with `#` and record the host, the seed and how each metric
//! was taken. See `README.md` beside this package.

mod explore;
mod fleet;
mod inputs;
mod layers;
mod report;
mod stats;

use bios_platform::ExecPolicy;
use fleet::{FleetShape, Stop, Window};
use report::Metrics;
use stats::{median_of, Latency};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often, and until
/// [`SETUP_BUDGET_S`] has been spent; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
/// Seconds of set-up repetitions per run.
const SETUP_BUDGET_S: f64 = 1.0;
/// Outcomes of the chaos fleet replayed to check the outcome digest.
const DIGEST_PREFIX: usize = 2048;
/// Sessions the traced run's lifted replay drives.
const REPLAY_SESSIONS: usize = 64;
/// Outcomes per schedule in the exec fan-out comparison.
const FANOUT_ATTEMPTS: usize = 1024;
/// Length of the light-fleet probe that gives `explore_panels` its
/// server-layer metrics.
const SERVER_PROBE: Duration = Duration::from_millis(1500);
/// Blocks of seven queries the explore window runs at least, so its
/// latency sample (at least 105) always has a p90 with 10 samples
/// beyond it.
const MIN_EXPLORE_BLOCKS: u64 = 15;
/// Share of the lifted replay's wall time the named layers must cover.
const MIN_COVERAGE: f64 = 0.95;

const USAGE: &str = "usage: perfbench --workload <fleet_heavy|fleet_chaos|explore_panels> \
                     --seed <n> --seconds <s> --trace <0|1> [--threads <n>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet(FleetShape),
    ExplorePanels,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--threads" => {
                threads = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("expected a positive integer"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "fleet_heavy" => Workload::Fleet(FleetShape::HEAVY),
        "fleet_chaos" => Workload::Fleet(FleetShape::CHAOS),
        "explore_panels" => Workload::ExplorePanels,
        _ => return Err(format!("unknown workload {name:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

/// What one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Peak resident set of this process, MiB: `VmHWM` from the process's
/// own `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count
/// the image the process was started from, before `exec`.)
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one measured window.
struct EndToEnd {
    throughput: f64,
    latency: Latency,
    completed_share: f64,
}

impl EndToEnd {
    fn log(&self, label: &str) {
        let l = &self.latency;
        println!(
            "# {label}: {:.3}/s; latency over {} samples in {} groups of at least {} (medians over groups): p50 {:.4} ms, tail p{} {:.4} ms \
             with at least {} samples beyond it per group; completed share {:.6}",
            self.throughput,
            l.count,
            l.groups,
            l.group_min,
            l.p50,
            l.tail_pct,
            l.tail,
            stats::beyond(l.group_min, l.tail_pct),
            self.completed_share
        );
    }

    fn push(&self, m: &mut Metrics, setup_s: f64) {
        m.push("setup_s", setup_s, "s");
        m.push("throughput_per_s", self.throughput, "1/s");
        m.push("latency_p50_ms", self.latency.p50, "ms");
        m.push("latency_tail_ms", self.latency.tail, "ms");
        m.push("completed_share", self.completed_share, "ratio");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    /// `trace.overhead.*`: the traced window minus the untraced one.
    fn push_overhead(m: &mut Metrics, untraced: &EndToEnd, traced: &EndToEnd) {
        m.push(
            "trace.overhead.throughput_per_s",
            traced.throughput - untraced.throughput,
            "1/s",
        );
        m.push(
            "trace.overhead.latency_p50_ms",
            traced.latency.p50 - untraced.latency.p50,
            "ms",
        );
        m.push(
            "trace.overhead.latency_tail_ms",
            traced.latency.tail - untraced.latency.tail,
            "ms",
        );
        m.push(
            "trace.overhead.completed_share",
            traced.completed_share - untraced.completed_share,
            "ratio",
        );
    }
}

fn fleet_e2e(w: &Window) -> Option<EndToEnd> {
    Some(EndToEnd {
        throughput: w.throughput(),
        latency: w.latency()?,
        completed_share: w.completed_share(),
    })
}

fn explore_e2e(w: &explore::QueryWindow) -> Option<EndToEnd> {
    Some(EndToEnd {
        throughput: w.throughput(),
        latency: w.latency()?,
        completed_share: w.completed_share(),
    })
}

fn check(ok: bool, what: &str) -> bool {
    if !ok {
        println!("# CHECK FAILED: {what}");
    }
    ok
}

/// The probes every traced run adds for the layers below the server:
/// the lifted session replay and the instrument, AFE and biochem timings.
fn session_layers(
    m: &mut Metrics,
    platform: &bios_platform::Platform,
    shape: FleetShape,
    seed: u64,
) -> bool {
    let replay = layers::replay(platform, shape, seed, REPLAY_SESSIONS);
    layers::replay_metrics(m, &replay);
    println!(
        "# lifted replay: {} sessions at {} per dispatch group, {:.1} ms wall, named layers cover {:.4}",
        REPLAY_SESSIONS,
        shape.per_shard(),
        replay.wall_us / 1e3,
        replay.coverage()
    );
    let chain_matches = layers::instrument_metrics(m, platform, seed);
    println!("# derived Fig-4 chrono chain reproduces the platform's glucose acquisition: {chain_matches}");
    check(
        replay.mismatches == 0,
        "replayed reports match blocking baselines",
    ) & check(
        replay.coverage() >= MIN_COVERAGE,
        "named layers cover >= 95% of the replay",
    )
}

fn run_fleet(args: &Args, shape: FleetShape, exec: ExecPolicy, threads: usize) -> Outcome {
    let (platform, mut fleet, setups) =
        fleet::timed_setup(shape, args.seed, exec, MIN_SETUPS, SETUP_BUDGET_S);
    let setup_s = median_of(&setups);
    println!(
        "# {} set-up (build + warm-up) repetitions, median {setup_s:.6} s",
        setups.len()
    );
    let mut m = Metrics::default();
    let mut correct = true;
    let windows: Vec<Window> = if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let untraced = fleet.run(Stop::At(Instant::now() + half), false);
        let before = fleet.stats();
        let traced = fleet.run(Stop::At(Instant::now() + half), true);
        let after = fleet.stats();
        let telemetry = fleet.drain_telemetry().len();
        layers::server_metrics(&mut m, &traced, before, after, telemetry);
        match (fleet_e2e(&untraced), fleet_e2e(&traced)) {
            (Some(a), Some(b)) => {
                a.log("untraced half");
                b.log("traced half");
                EndToEnd::push_overhead(&mut m, &a, &b);
            }
            _ => correct = check(false, "each half served enough sessions for a latency tail"),
        }
        vec![untraced, traced]
    } else {
        let w = fleet.run(
            Stop::At(Instant::now() + Duration::from_secs_f64(args.seconds)),
            false,
        );
        let rates: Vec<String> = w.slice_rates().iter().map(|r| format!("{r:.1}")).collect();
        println!("# per-slice throughput, 1/s: {}", rates.join(" "));
        match fleet_e2e(&w) {
            Some(e) => {
                e.log("window");
                e.push(&mut m, setup_s);
            }
            None => {
                correct = check(
                    false,
                    "the window served enough sessions for a latency tail",
                )
            }
        }
        vec![w]
    };
    let first = &windows[0];
    let labels =
        first
            .outcomes
            .iter()
            .fold(std::collections::BTreeMap::new(), |mut acc, (_, l)| {
                *acc.entry(*l).or_insert(0u64) += 1;
                acc
            });
    println!(
        "# outcomes: {labels:?}, {} ticks, {} steps",
        first.ticks, first.steps
    );
    drop(fleet);

    let checks: Vec<_> = windows
        .iter()
        .flat_map(|w| w.checks.iter().cloned())
        .collect();
    let mismatches = fleet::baseline_mismatches(platform, shape, args.seed, &checks, exec);
    println!(
        "# {} served reports compared with blocking baselines, {mismatches} differ",
        checks.len()
    );
    correct &= check(
        !checks.is_empty() && mismatches == 0,
        "served reports match blocking baselines",
    );
    if shape.chaos {
        let n = first.outcomes.len().min(DIGEST_PREFIX);
        let reference =
            fleet::replay_outcomes(platform, shape, args.seed, ExecPolicy::Sequential, n);
        let (got, want) = (first.outcome_digest(n), reference.outcome_digest(n));
        println!(
            "# outcome digest of the first {n} attempts: {got:016x}, sequential replay {want:016x}"
        );
        correct &= check(
            got == want,
            "the chaos outcome sequence replays identically",
        );
    }
    if args.trace {
        correct &= session_layers(&mut m, platform, shape, args.seed);
        let (traces, ok) = layers::explore_probe(&explore::panels(), args.seed, exec);
        correct &= check(ok, "explore probe digests match BENCH_10");
        layers::explore_metrics(&mut m, &traces, layers::evaluate_static_ns());
        let (speedup, same) =
            layers::fanout_speedup(platform, shape, args.seed, threads, FANOUT_ATTEMPTS);
        m.push("exec.fanout_speedup", speedup, "ratio");
        correct &= check(
            same,
            "the schedule is identical under Sequential and Threads",
        );
    }
    let attempted = windows.iter().map(|w| w.attempted).sum();
    let failed = windows
        .iter()
        .flat_map(|w| &w.outcomes)
        .filter(|(_, label)| *label == "failed")
        .count() as u64;
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

fn run_explore(args: &Args, exec: ExecPolicy, threads: usize) -> Outcome {
    let (panels, setups, warm_ok) = explore::timed_setup(exec, MIN_SETUPS, SETUP_BUDGET_S);
    let setup_s = median_of(&setups);
    println!(
        "# {} set-up (specs + one query per panel) repetitions, median {setup_s:.6} s",
        setups.len()
    );
    let mut m = Metrics::default();
    let mut correct = check(warm_ok, "warm-up digests match BENCH_10");
    let windows = if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let (untraced, next) = explore::run(
            &panels,
            args.seed,
            0,
            MIN_EXPLORE_BLOCKS,
            Instant::now() + half,
            exec,
            false,
        );
        let (traced, _) = explore::run(
            &panels,
            args.seed,
            next,
            MIN_EXPLORE_BLOCKS,
            Instant::now() + half,
            exec,
            true,
        );
        layers::explore_metrics(&mut m, &traced.traces, layers::evaluate_static_ns());
        match (explore_e2e(&untraced), explore_e2e(&traced)) {
            (Some(a), Some(b)) => {
                a.log("untraced half");
                b.log("traced half");
                EndToEnd::push_overhead(&mut m, &a, &b);
            }
            _ => correct = check(false, "each half ran enough queries for a latency tail"),
        }
        // The server and session layers, from a light fleet of Fig-4
        // sessions: this workload itself never reaches them.
        let platform = fleet::fig4_platform();
        let shape = FleetShape::LIGHT;
        let mut fleet = fleet::Fleet::new(&platform, shape, args.seed, exec);
        fleet.warm_up();
        let before = fleet.stats();
        let w = fleet.run(Stop::At(Instant::now() + SERVER_PROBE), true);
        let after = fleet.stats();
        let telemetry = fleet.drain_telemetry().len();
        drop(fleet);
        layers::server_metrics(&mut m, &w, before, after, telemetry);
        correct &= session_layers(&mut m, &platform, shape, args.seed);
        let (speedup, same) =
            layers::fanout_speedup(&platform, shape, args.seed, threads, FANOUT_ATTEMPTS);
        m.push("exec.fanout_speedup", speedup, "ratio");
        correct &= check(
            same,
            "the schedule is identical under Sequential and Threads",
        );
        vec![untraced, traced]
    } else {
        let (w, _) = explore::run(
            &panels,
            args.seed,
            0,
            MIN_EXPLORE_BLOCKS,
            Instant::now() + Duration::from_secs_f64(args.seconds),
            exec,
            false,
        );
        match explore_e2e(&w) {
            Some(e) => {
                e.log("window");
                e.push(&mut m, setup_s);
            }
            None => correct = check(false, "the window ran enough queries for a latency tail"),
        }
        vec![w]
    };
    for w in &windows {
        let counts: Vec<String> = panels
            .iter()
            .zip(&w.per_panel)
            .map(|(p, n)| format!("{}={n}", p.name))
            .collect();
        println!("# queries per panel: {}", counts.join(" "));
        correct &= check(
            w.correct == w.queries,
            "every query's frontier digest matches BENCH_10",
        );
        correct &= check(
            w.per_panel.iter().all(|&n| n == w.per_panel[0]),
            "every panel ran equally often",
        );
    }
    Outcome {
        correct,
        attempted: windows.iter().map(|w| w.queries).sum(),
        failed: 0,
        metrics: m,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        eprintln!(
            "perfbench: refusing to run {threads} worker threads on a host with nproc = {nproc}"
        );
        return ExitCode::from(2);
    }
    let exec = ExecPolicy::Threads(threads);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads={threads} exec={exec:?}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let started = Instant::now();
    let mut out = match args.workload {
        Workload::Fleet(shape) => run_fleet(&args, shape, exec, threads),
        Workload::ExplorePanels => run_explore(&args, exec, threads),
    };
    out.correct &= check(out.metrics.all_finite(), "every metric is a finite number");
    out.correct &= check(out.attempted > 0, "at least one request was attempted");
    print!("{}", out.metrics.lines());
    println!("# run took {:.2} s", started.elapsed().as_secs_f64());
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fleet_chaos --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Fleet(FleetShape::CHAOS));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.threads),
            (7, 10.0, true, None)
        );
        let a = args("--workload explore_panels --seed 0 --seconds 2.5 --trace 0 --threads 1")
            .expect("valid");
        assert_eq!(a.workload, Workload::ExplorePanels);
        assert_eq!(a.threads, Some(1));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_light --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_heavy --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet_heavy --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet_heavy --seconds 1 --trace 0").is_err());
    }
}
