//! Closed-loop fleets served through `bios-server`.
//!
//! A client is one logical outstanding request, not a thread: a single
//! thread calls `submit`, `tick(&NullClock)` and
//! `drain_completed`, and a client sends its next request only after its
//! previous one was served (or refused). The control path reads no wall
//! clock, so the sequence of served outcomes is a deterministic function
//! of the seed; the wall clock only decides where the window ends.

use crate::inputs::{self, mix};
use crate::stats::{median_of, Latency, LATENCY_GROUP};
use bios_platform::{
    par_map, ExecPolicy, PanelSpec, Platform, PlatformBuilder, SessionOptions, SessionReport,
};
use bios_server::{
    ChaosPlan, DiagnosticsServer, NullClock, ServerConfig, ServerError, ServerStats, SessionOutcome,
};
use std::time::Instant;

/// Sessions a device serves before its client moves to a fresh device.
const SESSIONS_PER_DEVICE: u64 = 4;

/// Length of the slices a window is cut into: throughput is the median
/// of the slices' rates, and each slice contributes at most
/// [`LATENCY_SAMPLES_PER_SLICE`] latency samples.
pub const SLICE_S: f64 = 1.0;

/// Latency samples kept per slice (the first sessions served in it), so
/// the sample count, and with it the tail percentile, does not move with
/// throughput.
pub const LATENCY_SAMPLES_PER_SLICE: usize = 500;

/// Clients join during the first ticks of the warm-up, client `c` at tick
/// `c % JOIN_TICKS` (about one session length), so their sessions sit in
/// different phases instead of completing in lock-step waves.
const JOIN_TICKS: usize = 5;

/// Completed reports kept for the bit-for-bit baseline comparison.
const CHECK_CAP: usize = 48;

/// One served report in 32 is selected for the baseline comparison.
pub const CHECK_EVERY: u64 = 32;

/// The shape of a fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Logical clients (outstanding requests).
    pub clients: usize,
    /// Server shards; devices route by `device % shards`.
    pub shards: usize,
    /// Stalls, aborts, AFE fault overlays, mixed tiers, tight deadline.
    pub chaos: bool,
}

impl FleetShape {
    /// 256 clean clients over 8 shards.
    pub const HEAVY: FleetShape = FleetShape {
        clients: 256,
        shards: 8,
        chaos: false,
    };
    /// 8 clean clients, one per shard: the probe that gives
    /// `explore_panels` its server-layer metrics.
    pub const LIGHT: FleetShape = FleetShape {
        clients: 8,
        shards: 8,
        chaos: false,
    };
    /// 256 clients under a chaos plan.
    pub const CHAOS: FleetShape = FleetShape {
        clients: 256,
        shards: 8,
        chaos: true,
    };

    /// Clients per shard: the number of sessions a shard coalesces.
    pub fn per_shard(&self) -> usize {
        self.clients / self.shards
    }

    /// The server configuration under `exec`.
    pub fn config(&self, exec: ExecPolicy) -> ServerConfig {
        let config = ServerConfig::default()
            .with_shards(self.shards)
            .with_exec(exec);
        if self.chaos {
            // 32 clients per shard against 24 session slots: a standing
            // queue above the watermark sheds best-effort work, and the
            // deadline cuts stalled sessions.
            config
                .with_max_active(24)
                .with_queue_capacity(64)
                .with_shed_watermark(12)
                .with_deadline_ticks(24)
        } else {
            config.with_max_active(self.per_shard())
        }
    }

    /// The chaos plan for a workload seed, on the chaos fleet only.
    pub fn chaos_plan(&self, workload_seed: u64) -> Option<ChaosPlan> {
        self.chaos.then(|| {
            ChaosPlan::new(mix(workload_seed, 0xc4a0))
                .with_stalls(0.08, 40)
                .with_aborts(0.08)
                .with_afe_faults(0.25)
        })
    }
}

/// The Fig-4 platform every fleet serves.
pub fn fig4_platform() -> Platform {
    PlatformBuilder::new(PanelSpec::paper_fig4())
        .build()
        .expect("the Fig-4 panel builds")
}

/// What a measured window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of the window, seconds.
    pub elapsed_s: f64,
    /// Requests attempted: served plus refused at submission.
    pub attempted: u64,
    /// Sessions served to any terminal outcome.
    pub served: u64,
    /// Sessions served as `Completed`.
    pub completed: u64,
    /// Submit-to-drain latency of the first
    /// [`LATENCY_SAMPLES_PER_SLICE`] sessions served in each slice,
    /// milliseconds, in service order.
    pub latencies_ms: Vec<f64>,
    /// Latency samples kept per slice.
    slice_samples: Vec<usize>,
    /// `(end of tick since the window opened in s, sessions it served)`.
    tick_log: Vec<(f64, u32)>,
    /// `(device, outcome label)` of every attempt, in service order.
    pub outcomes: Vec<(u64, &'static str)>,
    /// Completed sessions selected for the baseline comparison.
    pub checks: Vec<(u64, u64, SessionReport)>,
    /// Ticks run.
    pub ticks: u64,
    /// State-machine steps the ticks executed.
    pub steps: u64,
    /// Per-tick wall time, nanoseconds (traced windows only).
    pub tick_ns: Vec<u64>,
    /// Total time inside `submit`, nanoseconds (traced windows only).
    pub submit_ns: u64,
    /// `submit` calls timed.
    pub submits: u64,
}

impl Window {
    /// Served sessions per second: the median rate over the window's
    /// slices.
    pub fn throughput(&self) -> f64 {
        median_of(&self.slice_rates())
    }

    /// Served sessions per second in each slice, each slice made of the
    /// whole ticks that ended in it.
    pub fn slice_rates(&self) -> Vec<f64> {
        let slices = ((self.elapsed_s / SLICE_S).round() as usize).max(1);
        let mut served = vec![0u64; slices];
        let mut ends = vec![0.0f64; slices];
        for &(end, n) in &self.tick_log {
            let i = ((end / SLICE_S) as usize).min(slices - 1);
            served[i] += u64::from(n);
            ends[i] = end;
        }
        let mut rates = Vec::with_capacity(slices);
        let mut from = 0.0;
        for (n, end) in served.into_iter().zip(ends) {
            if end > from {
                rates.push(n as f64 / (end - from));
                from = end;
            }
        }
        rates
    }

    /// Completed sessions over requests attempted.
    pub fn completed_share(&self) -> f64 {
        self.completed as f64 / self.attempted.max(1) as f64
    }

    /// Median and tail of the submit-to-drain latency.
    pub fn latency(&self) -> Option<Latency> {
        Latency::grouped(&self.latencies_ms, LATENCY_GROUP)
    }

    /// Digest of the first `n` `(device, outcome)` pairs.
    pub fn outcome_digest(&self, n: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (device, label) in self.outcomes.iter().take(n) {
            for b in device.to_le_bytes().iter().chain(label.as_bytes()) {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// When a window ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first tick boundary after this instant.
    At(Instant),
    /// Once this many attempts have been recorded.
    Outcomes(usize),
}

#[derive(Debug, Clone, Copy, Default)]
struct Client {
    /// Requests this client has issued so far.
    k: u64,
    /// Device generation: the client's device is `client + clients · generation`.
    generation: u64,
    /// Sessions served on the current device.
    on_device: u64,
    /// When the outstanding request was submitted.
    submitted_at: Option<Instant>,
    /// The client has started sending requests.
    joined: bool,
}

/// A fleet of closed-loop clients in front of one server.
pub struct Fleet<'p> {
    shape: FleetShape,
    seed: u64,
    server: DiagnosticsServer<'p>,
    clients: Vec<Client>,
    check_every: u64,
}

impl<'p> Fleet<'p> {
    /// A fleet over `platform` with the server's shards fanned out under
    /// `exec`.
    pub fn new(platform: &'p Platform, shape: FleetShape, seed: u64, exec: ExecPolicy) -> Self {
        let mut server = DiagnosticsServer::new(platform, shape.config(exec));
        if let Some(plan) = shape.chaos_plan(seed) {
            server = server.with_chaos(plan);
        }
        Fleet {
            shape,
            seed,
            server,
            clients: vec![Client::default(); shape.clients],
            check_every: CHECK_EVERY,
        }
    }

    /// Selects one completed report in `every` for the baseline
    /// comparison instead of one in [`CHECK_EVERY`].
    #[cfg(test)]
    pub fn with_check_every(mut self, every: u64) -> Self {
        self.check_every = every.max(1);
        self
    }

    /// The server's cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Drains the server's per-step latency telemetry, which the fleet
    /// otherwise never reads.
    pub fn drain_telemetry(&mut self) -> Vec<u64> {
        self.server.drain_latencies()
    }

    fn device_of(&self, client: usize) -> u64 {
        client as u64 + self.shape.clients as u64 * self.clients[client].generation
    }

    fn move_to_fresh_device(&mut self, client: usize) {
        let c = &mut self.clients[client];
        c.generation += 1;
        c.on_device = 0;
    }

    /// Submits the next request of every client without one outstanding.
    fn submit_idle(&mut self, w: &mut Window, trace: bool) {
        for client in 0..self.clients.len() {
            while self.clients[client].joined && self.clients[client].submitted_at.is_none() {
                let device = self.device_of(client);
                let k = self.clients[client].k;
                let req = inputs::request(self.seed, self.shape.chaos, client as u64, k, device);
                let t = Instant::now();
                let res = self.server.submit(req);
                if trace {
                    w.submit_ns += t.elapsed().as_nanos() as u64;
                    w.submits += 1;
                }
                match res {
                    Ok(()) => self.clients[client].submitted_at = Some(t),
                    Err(e) => {
                        self.clients[client].k += 1;
                        w.attempted += 1;
                        let quarantined = matches!(e, ServerError::Quarantined { .. });
                        w.outcomes.push((
                            device,
                            if quarantined {
                                "refused-quarantined"
                            } else {
                                "refused-overloaded"
                            },
                        ));
                        if !quarantined {
                            // Retry on the next tick.
                            break;
                        }
                        // The device is out of service: continue on a fresh one.
                        self.move_to_fresh_device(client);
                    }
                }
            }
        }
    }

    /// Records every served session; their clients become idle.
    /// `slice` is the index of the slice `now` falls in.
    fn drain(&mut self, w: &mut Window, now: Instant, slice: usize) {
        if w.slice_samples.len() <= slice {
            w.slice_samples.resize(slice + 1, 0);
        }
        for done in self.server.drain_completed() {
            let client = (done.device % self.shape.clients as u64) as usize;
            let sent = self.clients[client]
                .submitted_at
                .take()
                .expect("a served session has an outstanding request");
            if w.slice_samples[slice] < LATENCY_SAMPLES_PER_SLICE {
                w.slice_samples[slice] += 1;
                w.latencies_ms
                    .push(now.duration_since(sent).as_secs_f64() * 1e3);
            }
            w.attempted += 1;
            w.served += 1;
            w.outcomes.push((done.device, done.outcome.label()));
            if let SessionOutcome::Completed(report) = done.outcome {
                w.completed += 1;
                if mix(done.seed, 0xc4ec).is_multiple_of(self.check_every)
                    && w.checks.len() < CHECK_CAP
                {
                    w.checks.push((done.device, done.seed, report));
                }
            }
            let c = &mut self.clients[client];
            c.k += 1;
            c.on_device += 1;
            if c.on_device == SESSIONS_PER_DEVICE {
                self.move_to_fresh_device(client);
            }
        }
    }

    /// One tick, timed when tracing; returns the instant it ended.
    fn tick(&mut self, w: &mut Window, trace: bool) -> Instant {
        let start = trace.then(Instant::now);
        let summary = self.server.tick(&NullClock);
        let end = Instant::now();
        if let Some(start) = start {
            w.tick_ns.push(end.duration_since(start).as_nanos() as u64);
        }
        w.ticks += 1;
        w.steps += summary.steps;
        end
    }

    /// Runs the closed loop while the clients join, until every client
    /// has been served once: the warm-up that fills the memo caches and
    /// brings the loop to its steady state.
    pub fn warm_up(&mut self) -> Window {
        let mut w = Window::default();
        for tick in 0.. {
            for (c, client) in self.clients.iter_mut().enumerate() {
                client.joined |= c % JOIN_TICKS <= tick;
            }
            if tick >= JOIN_TICKS && self.clients.iter().all(|c| c.k > 0) {
                break;
            }
            self.submit_idle(&mut w, false);
            let now = self.tick(&mut w, false);
            self.drain(&mut w, now, 0);
        }
        w
    }

    /// Runs the closed loop until `stop`.
    pub fn run(&mut self, stop: Stop, trace: bool) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        self.submit_idle(&mut w, trace);
        loop {
            let now = self.tick(&mut w, trace);
            let end = now.duration_since(start).as_secs_f64();
            let served = w.served;
            self.drain(&mut w, now, (end / SLICE_S) as usize);
            w.tick_log.push((end, (w.served - served) as u32));
            let done = match stop {
                Stop::At(end) => now >= end,
                Stop::Outcomes(n) => w.outcomes.len() >= n,
            };
            if done {
                w.elapsed_s = end;
                return w;
            }
            self.submit_idle(&mut w, trace);
        }
    }
}

/// Builds the platform and a warmed-up fleet until `budget_s` seconds
/// have been spent on at least `min_repeats` repetitions, and keeps the
/// last; returns the set-up wall time of each repetition. Memo caches
/// are cleared before every repetition so each pays the same cost. The
/// kept platform lives for the rest of the process.
pub fn timed_setup(
    shape: FleetShape,
    seed: u64,
    exec: ExecPolicy,
    min_repeats: usize,
    budget_s: f64,
) -> (&'static Platform, Fleet<'static>, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        bios_platform::clear_memo_caches();
        let t = Instant::now();
        let platform: &'static Platform = Box::leak(Box::new(fig4_platform()));
        let mut fleet = Fleet::new(platform, shape, seed, exec);
        fleet.warm_up();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_repeats && times.iter().sum::<f64>() >= budget_s {
            return (platform, fleet, times);
        }
    }
}

/// The options the server applies to `device`'s sessions: the defaults,
/// run sequentially, with the chaos plan's AFE overlay when it has one.
pub fn session_options(shape: FleetShape, seed: u64, device: u64, wes: usize) -> SessionOptions {
    let mut options = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    options.fault_plan = shape
        .chaos_plan(seed)
        .and_then(|p| p.fault_plan_for(device, wes));
    options
}

/// Served reports that differ from a same-seed blocking
/// `run_session_with` baseline under the options the server applied.
pub fn baseline_mismatches(
    platform: &Platform,
    shape: FleetShape,
    seed: u64,
    checks: &[(u64, u64, SessionReport)],
    exec: ExecPolicy,
) -> usize {
    let wes = platform.assignments().len();
    let verdicts = par_map(exec, checks, |_, (device, session_seed, served)| {
        let options = session_options(shape, seed, *device, wes);
        let baseline = platform
            .run_session_with(&inputs::sample_for(*session_seed), *session_seed, &options)
            .expect("baseline session");
        baseline != *served
    });
    verdicts.into_iter().filter(|&bad| bad).count()
}

/// A deterministic outcome sequence of `n` attempts, replayed from
/// scratch: warm-up, then the closed loop under `exec`.
pub fn replay_outcomes(
    platform: &Platform,
    shape: FleetShape,
    seed: u64,
    exec: ExecPolicy,
    n: usize,
) -> Window {
    let mut fleet = Fleet::new(platform, shape, seed, exec);
    fleet.warm_up();
    fleet.run(Stop::Outcomes(n), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: FleetShape = FleetShape {
        clients: 4,
        shards: 2,
        chaos: false,
    };
    const TINY_CHAOS: FleetShape = FleetShape {
        clients: 8,
        shards: 2,
        chaos: true,
    };

    #[test]
    fn same_seed_same_outcome_digest() {
        let platform = fig4_platform();
        for shape in [TINY, TINY_CHAOS] {
            let a = replay_outcomes(&platform, shape, 5, ExecPolicy::Sequential, 24);
            let b = replay_outcomes(&platform, shape, 5, ExecPolicy::Threads(2), 24);
            assert_eq!(a.outcome_digest(24), b.outcome_digest(24));
            assert_eq!(&a.outcomes[..24], &b.outcomes[..24]);
        }
        let a = replay_outcomes(&platform, TINY_CHAOS, 5, ExecPolicy::Sequential, 24);
        let c = replay_outcomes(&platform, TINY_CHAOS, 6, ExecPolicy::Sequential, 24);
        assert_ne!(a.outcome_digest(24), c.outcome_digest(24));
    }

    #[test]
    fn served_reports_match_blocking_baselines() {
        let platform = fig4_platform();
        for shape in [TINY, TINY_CHAOS] {
            let mut fleet =
                Fleet::new(&platform, shape, 11, ExecPolicy::Sequential).with_check_every(1);
            fleet.warm_up();
            let w = fleet.run(Stop::Outcomes(16), false);
            assert!(!w.checks.is_empty());
            assert_eq!(w.checks.len() as u64, w.completed.min(CHECK_CAP as u64));
            assert_eq!(
                baseline_mismatches(&platform, shape, 11, &w.checks, ExecPolicy::Sequential),
                0
            );
        }
    }
}
