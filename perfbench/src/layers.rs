//! Per-layer probes for the traced run. Every timing here is taken from
//! outside the program, around calls into each layer's public functions.

use crate::explore::{self, Panel, QueryTrace};
use crate::fleet::{self, Fleet, FleetShape, Stop, Window};
use crate::inputs::{self, mix, unit};
use crate::report::Metrics;
use crate::stats::{median_of, percentile};
use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
use bios_biochem::{Interferent, OxidaseSensor};
use bios_electrochem::{Electrode, PotentialProgram};
use bios_explore::{evaluate_static, ExploreSpec, PanelContext};
use bios_instrument::{analyze_transient, run_chrono_with_interferents, run_cv};
use bios_platform::{ExecPolicy, PanelSpec, Platform, SensorModel, SessionOptions, StepEvent};
use bios_server::ServerStats;
use bios_units::{Amps, Molar, Seconds};
use std::hint::black_box;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// What the lifted replay of a workload's first sessions measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of the whole replay, microseconds.
    pub wall_us: f64,
    /// Time in session-machine calls (create, step, begin/complete
    /// sample, finish), microseconds.
    pub session_us: f64,
    /// Time in `SessionMachine::step` alone, microseconds.
    pub step_us: f64,
    /// `step` calls.
    pub step_calls: u64,
    /// All transitions: `step` calls plus absorbed acquisitions.
    pub steps: u64,
    /// Time in `Platform::run_samples`, microseconds.
    pub acquire_us: f64,
    /// Acquisitions served.
    pub acquisitions: u64,
    /// `run_samples` dispatches.
    pub dispatches: u64,
    /// Retries across the replayed reports.
    pub retries: u64,
    /// Replayed reports that differ from their blocking baseline.
    pub mismatches: usize,
}

impl Replay {
    /// Share of the replay's wall time inside the named layers.
    pub fn coverage(&self) -> f64 {
        (self.session_us + self.acquire_us) / self.wall_us
    }
}

/// Drives the workload's first `sessions` sessions through the session
/// machine, coalescing acquisitions `per_shard` sessions at a time the
/// way one server shard does, and times each layer boundary.
pub fn replay(platform: &Platform, shape: FleetShape, seed: u64, sessions: usize) -> Replay {
    let wes = platform.assignments().len();
    let requests: Vec<_> = (0..sessions as u64)
        .map(|c| inputs::request(seed, shape.chaos, c, 0, c))
        .collect();
    let mut r = Replay::default();
    let mut reports = Vec::with_capacity(sessions);
    let wall = Instant::now();
    for group in requests.chunks(shape.per_shard().max(1)) {
        let t = Instant::now();
        let mut machines: Vec<_> = group
            .iter()
            .map(|q| {
                platform.session_machine(
                    &q.sample,
                    q.seed,
                    &fleet::session_options(shape, seed, q.device, wes),
                )
            })
            .collect();
        r.session_us += us(t);
        let mut lanes = Vec::with_capacity(machines.len());
        let mut batch = Vec::with_capacity(machines.len());
        loop {
            lanes.clear();
            batch.clear();
            for (i, m) in machines.iter_mut().enumerate() {
                while !m.is_done() {
                    if m.next_is_sample() {
                        let t = Instant::now();
                        let request = m.begin_sample(platform);
                        r.session_us += us(t);
                        if let Some(request) = request {
                            lanes.push(i);
                            batch.push(request);
                            break;
                        }
                    }
                    let t = Instant::now();
                    let event = m.step(platform).expect("replayed step");
                    let dt = us(t);
                    r.session_us += dt;
                    r.step_us += dt;
                    r.step_calls += 1;
                    r.steps += 1;
                    if matches!(event, StepEvent::SessionDone) {
                        break;
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            let t = Instant::now();
            let results = platform.run_samples(&batch, ExecPolicy::Sequential);
            r.acquire_us += us(t);
            r.dispatches += 1;
            r.acquisitions += batch.len() as u64;
            let t = Instant::now();
            for ((&i, request), result) in lanes.iter().zip(&batch).zip(results) {
                machines[i]
                    .complete_sample(platform, request, result)
                    .expect("replayed acquisition");
                r.steps += 1;
            }
            r.session_us += us(t);
        }
        let t = Instant::now();
        for m in &machines {
            reports.push(m.finish(platform).expect("replayed session finishes"));
        }
        r.session_us += us(t);
    }
    r.wall_us = us(wall);
    r.retries = reports
        .iter()
        .map(|rep| rep.degradation().retries as u64)
        .sum();
    r.mismatches = requests
        .iter()
        .zip(&reports)
        .filter(|(q, served)| {
            let options = fleet::session_options(shape, seed, q.device, wes);
            platform
                .run_session_with(&q.sample, q.seed, &options)
                .expect("baseline session")
                != **served
        })
        .count();
    r
}

/// Adds the replay's `session.*` and `acquire.*` metrics.
pub fn replay_metrics(m: &mut Metrics, r: &Replay) {
    m.push("session.step_us", r.step_us / r.step_calls as f64, "us");
    m.push("session.steps", r.steps as f64, "count");
    m.push("session.acquisitions", r.acquisitions as f64, "count");
    m.push("session.retries", r.retries as f64, "count");
    m.push("session.layer_coverage", r.coverage(), "ratio");
    m.push(
        "acquire.request_us",
        r.acquire_us / r.acquisitions as f64,
        "us",
    );
    m.push(
        "acquire.batch_requests",
        r.acquisitions as f64 / r.dispatches as f64,
        "count",
    );
    m.push("acquire.share", r.acquire_us / r.wall_us, "ratio");
}

/// The Fig-4 readout chains, derived from the platform's sensor models
/// the way `PlatformBuilder` derives them (full scale 1.2 × the largest
/// saturation current, resolution a third of the smallest blank noise).
fn fig4_chains(platform: &Platform) -> (ReadoutChain, ReadoutChain) {
    let (mut ox_fs, mut ox_res, mut cv_fs, mut cv_res) =
        (0.0f64, f64::INFINITY, 0.0f64, f64::INFINITY);
    for a in platform.assignments() {
        let area = a.electrode().geometric_area().value();
        match a.sensor() {
            SensorModel::Oxidase(s) => {
                ox_fs = ox_fs.max(1.2 * area * s.sensitivity_si() * s.kinetics().km().value());
                ox_res = ox_res.min(s.blank_sd().value() * area / 3.0);
            }
            SensorModel::Cytochrome(s) => {
                for &t in a.targets() {
                    let (Some(sens), Some(k), Some(sd)) =
                        (s.sensitivity_si(t), s.kinetics(t), s.blank_sd(t))
                    else {
                        continue;
                    };
                    cv_fs = cv_fs.max(1.2 * (sens * k.km().value() * area + 5e-9));
                    cv_res = cv_res.min(sd.value() * area / 3.0);
                }
            }
        }
    }
    let chain = |fs: f64, res: f64| {
        let range = CurrentRange::new(Amps::new(fs), Amps::new(res.max(fs / 32768.0)));
        ReadoutChain::new(ChainConfig::for_range(range).expect("Fig-4 chain config"))
    };
    (chain(ox_fs, ox_res), chain(cv_fs, cv_res))
}

/// Median over `batches` of the mean time per call of `f`, in ns.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut means = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for i in 0..calls {
            f(b * calls + i);
        }
        means.push(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median_of(&means)
}

/// A standard normal draw from two hashes (Box–Muller).
fn gaussian(h: u64) -> f64 {
    let u1 = unit(mix(h, 1)).max(1e-300);
    let u2 = unit(mix(h, 2));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Times the instrument, AFE and biochem layers on Fig-4-equivalent
/// acquisitions: the glucose electrode's chronoamperometry and the
/// cytochrome electrode's voltammetry. Returns whether the derived chrono
/// chain reproduces the platform's own glucose acquisition bit for bit.
pub fn instrument_metrics(m: &mut Metrics, platform: &Platform, seed: u64) -> bool {
    let (chrono_chain, cv_chain) = fig4_chains(platform);
    let ox = platform
        .assignments()
        .iter()
        .find_map(|a| match a.sensor() {
            SensorModel::Oxidase(s) => Some((a, s)),
            SensorModel::Cytochrome(_) => None,
        })
        .expect("Fig-4 has an oxidase electrode");
    let cyp = platform
        .assignments()
        .iter()
        .find_map(|a| match a.sensor() {
            SensorModel::Cytochrome(s) => Some((a, s)),
            SensorModel::Oxidase(_) => None,
        })
        .expect("Fig-4 has a cytochrome electrode");
    let protocol = *platform.chrono_protocol();
    let sample = inputs::sample_for(mix(seed, 0x1a7e));
    let interferents: Vec<(Interferent, Molar)> = sample
        .iter()
        .filter_map(|(a, c)| Interferent::of(*a).map(|i| (i, *c)))
        .collect();
    let conc = |analyte| {
        sample
            .iter()
            .find(|(a, _)| *a == analyte)
            .map_or(Molar::ZERO, |(_, c)| *c)
    };
    let c_ox = conc(ox.0.targets()[0]);
    let chrono = |s: u64| {
        run_chrono_with_interferents(
            ox.1,
            ox.0.electrode(),
            &chrono_chain,
            c_ox,
            &interferents,
            &protocol,
            s,
        )
        .expect("Fig-4 chrono acquisition")
    };
    let (batches, calls) = (7, 24);
    let chrono_ns = per_call_ns(batches, calls, |i| {
        black_box(chrono(mix(seed, i as u64)));
    });
    let cyp_concs: Vec<(bios_biochem::Analyte, Molar)> =
        cyp.0.targets().iter().map(|&a| (a, conc(a))).collect();
    let cv_ns = per_call_ns(batches, calls / 4, |i| {
        black_box(
            run_cv(
                cyp.1,
                cyp.0.electrode(),
                &cv_chain,
                &cyp_concs,
                platform.cv_protocol(),
                mix(seed, i as u64),
            )
            .expect("Fig-4 CV acquisition"),
        );
    });
    let measured = chrono(seed);
    let transient = measured.transient.clone();
    let analyze_ns = per_call_ns(batches, calls, |_| {
        black_box(analyze_transient(transient.clone(), protocol.settle));
    });
    let clone_ns = per_call_ns(batches, calls, |_| {
        black_box(transient.clone());
    });
    let full_scale = chrono_chain.config().full_scale_current();
    let reference = chrono_chain
        .baseline_noise_reference(protocol.dt, protocol.settle, 0)
        .ok();
    let gate = SessionOptions::default().qc;
    let qc_ns = per_call_ns(batches, calls * 8, |_| {
        black_box(gate.check_chrono_referenced(&measured, full_scale, reference));
    });
    let (afe_ns, samples) =
        afe_acquire(ox.1, ox.0.electrode(), &chrono_chain, c_ox, &protocol, seed);
    // One call per sample time of the chrono protocol, as the acquisition
    // makes them.
    let sample_times = samples as u64;
    let transient_ns = per_call_ns(batches, 4096, |i| {
        let t = (i as u64 % sample_times) as f64 * protocol.dt.value();
        let since = Seconds::new(t - protocol.settle.value());
        black_box(ox.1.transient_current_density(Molar::ZERO, black_box(c_ox), since));
    });
    m.push("instrument.chrono_us", chrono_ns / 1e3, "us");
    m.push("instrument.cv_us", cv_ns / 1e3, "us");
    m.push(
        "instrument.analyze_us",
        (analyze_ns - clone_ns).max(0.0) / 1e3,
        "us",
    );
    m.push("instrument.qc_us", qc_ns / 1e3, "us");
    m.push("afe.acquire_us", afe_ns / 1e3, "us");
    m.push("afe.ns_per_sample", afe_ns / samples as f64, "ns");
    m.push("afe.share_of_chrono", afe_ns / chrono_ns, "ratio");
    m.push("biochem.transient_ns", transient_ns, "ns");

    // The derived chain is the platform's chain when the same acquisition
    // reproduces the platform's glucose reading bit for bit.
    let probe_seed = mix(seed, 0x5eed);
    let options = SessionOptions::default().with_exec(ExecPolicy::Sequential);
    let mut machine = platform.session_machine(&sample, probe_seed, &options);
    let request = loop {
        if let Some(request) = machine.begin_sample(platform) {
            if request.slot() == 0 && request.attempt() == 0 {
                break Some(request);
            }
        }
        match machine.step(platform) {
            Ok(StepEvent::SessionDone) | Err(_) => break None,
            Ok(_) => {}
        }
    };
    let Some(request) = request else { return false };
    let Ok((readings, _)) = platform
        .run_samples(&[request], ExecPolicy::Sequential)
        .remove(0)
    else {
        return false;
    };
    let we_seed = probe_seed.wrapping_add(17 * (ox.0.index() as u64 + 1));
    readings[0].response.value().to_bits() == chrono(we_seed).delta().value().to_bits()
}

/// Times `ReadoutChain::acquire` over a chrono program whose input is
/// the Fig-4 oxidase transient plus within-run noise, computed before
/// the clock starts so the time is the AFE chain's own; returns ns per
/// acquisition and the samples per acquisition.
fn afe_acquire(
    sensor: &OxidaseSensor,
    electrode: &Electrode,
    chain: &ReadoutChain,
    c: Molar,
    protocol: &bios_instrument::ChronoProtocol,
    seed: u64,
) -> (f64, usize) {
    let area = electrode.geometric_area().value();
    let duration = protocol.settle.value() + protocol.measure.value();
    let program = PotentialProgram::Hold {
        potential: sensor.applied_potential(),
        duration: Seconds::new(duration),
    };
    let within_sd = sensor.blank_sd().value() * area / 5.0;
    let steps = (duration / protocol.dt.value()).round() as usize;
    let input: Vec<f64> = (0..=steps)
        .map(|k| {
            let since = Seconds::new(k as f64 * protocol.dt.value() - protocol.settle.value());
            sensor
                .transient_current_density(Molar::ZERO, c, since)
                .value()
                * area
                + gaussian(mix(seed, k as u64)) * within_sd
        })
        .collect();
    let mut samples = 0;
    let ns = per_call_ns(7, 24, |i| {
        let mut k = 0;
        let out = chain
            .acquire(
                &program,
                protocol.dt,
                mix(seed, i as u64),
                |_t, _e| {
                    let v = input[k.min(steps)];
                    k += 1;
                    Amps::new(v)
                },
                |_t, _e| Amps::ZERO,
            )
            .expect("Fig-4 AFE acquisition");
        samples = out.len();
        black_box(out);
    });
    (ns, samples)
}

/// Adds the `server.*` metrics of a traced fleet window; `before` and
/// `after` are the server's counters around it.
pub fn server_metrics(
    m: &mut Metrics,
    w: &Window,
    before: ServerStats,
    after: ServerStats,
    telemetry_len: usize,
) {
    let mut ticks: Vec<f64> = w.tick_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    ticks.sort_by(f64::total_cmp);
    m.push("server.tick_us_p50", percentile(&ticks, 50.0), "us");
    m.push("server.tick_us_p99", percentile(&ticks, 99.0), "us");
    m.push("server.ticks", w.ticks as f64, "count");
    m.push(
        "server.steps_per_tick",
        w.steps as f64 / w.ticks as f64,
        "count",
    );
    m.push(
        "server.submit_us",
        w.submit_ns as f64 / 1e3 / w.submits.max(1) as f64,
        "us",
    );
    m.push("server.shed", (after.shed - before.shed) as f64, "count");
    m.push(
        "server.deadline_misses",
        (after.deadline_misses - before.deadline_misses) as f64,
        "count",
    );
    m.push(
        "server.aborted",
        (after.aborted - before.aborted) as f64,
        "count",
    );
    let rejected = |s: ServerStats| s.rejected_overloaded + s.rejected_quarantined;
    m.push(
        "server.rejected",
        (rejected(after) - rejected(before)) as f64,
        "count",
    );
    m.push(
        "server.quarantined",
        after.quarantined_devices as f64,
        "count",
    );
    m.push(
        "server.telemetry_bytes",
        (telemetry_len * 8) as f64,
        "bytes",
    );
}

/// Runs the same `attempts`-long schedule under `Sequential` and under
/// `Threads(threads)` and returns the ratio of total tick time, and
/// whether both schedules served the same outcomes.
pub fn fanout_speedup(
    platform: &Platform,
    shape: FleetShape,
    seed: u64,
    threads: usize,
    attempts: usize,
) -> (f64, bool) {
    let run = |exec| {
        let mut fleet = Fleet::new(platform, shape, seed, exec);
        fleet.warm_up();
        let w = fleet.run(Stop::Outcomes(attempts), true);
        (
            w.tick_ns.iter().sum::<u64>() as f64,
            w.outcome_digest(attempts),
        )
    };
    let (seq_ns, seq_digest) = run(ExecPolicy::Sequential);
    let (par_ns, par_digest) = run(ExecPolicy::Threads(threads));
    (seq_ns / par_ns, seq_digest == par_digest)
}

/// Adds the `explore.*` metrics of a set of traced queries, averaged per
/// query.
pub fn explore_metrics(m: &mut Metrics, traces: &[QueryTrace], evaluate_static_ns: f64) {
    let n = traces.len() as f64;
    let mean = |f: &dyn Fn(&QueryTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&QueryTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    m.push("explore.context_ms", mean(&|t| t.context_s * 1e3), "ms");
    m.push("explore.prune_ms", mean(&|t| t.warm_s * 1e3), "ms");
    m.push(
        "explore.score_ms",
        mean(&|t| (t.cold_s - t.warm_s) * 1e3),
        "ms",
    );
    m.push(
        "explore.classes_evaluated",
        mean(&|t| t.classes_evaluated as f64),
        "count",
    );
    for pass in [
        "lod-feasibility",
        "afe-range",
        "session-schedule",
        "dominance",
    ] {
        let out = mean(&|t| {
            t.points_out
                .iter()
                .find(|(p, _)| p == pass)
                .map_or(f64::NAN, |(_, o)| *o as f64)
        });
        m.push(&format!("explore.{pass}.points_out"), out, "count");
    }
    m.push(
        "explore.static_reject_ratio",
        sum(&|t| t.rejected) / sum(&|t| t.points),
        "ratio",
    );
    m.push("explore.band_points", mean(&|t| t.band as f64), "count");
    m.push(
        "explore.replay_ratio",
        sum(&|t| t.replayed) / sum(&|t| t.shards),
        "ratio",
    );
    m.push("explore.evaluate_static_ns", evaluate_static_ns, "ns");
}

/// Two traced queries per panel, in the seed's first two blocks.
pub fn explore_probe(panels: &[Panel], seed: u64, exec: ExecPolicy) -> (Vec<QueryTrace>, bool) {
    let mut ok = true;
    let traces = (0..2)
        .flat_map(|block| inputs::panel_block(seed, block, panels.len()))
        .filter_map(|idx| {
            let (good, _, trace) = explore::query(&panels[idx], exec, true);
            ok &= good;
            trace
        })
        .collect();
    (traces, ok)
}

/// Mean time of one `evaluate_static` call over a strided sample of the
/// Fig-4 standard box, in ns.
pub fn evaluate_static_ns() -> f64 {
    let spec = ExploreSpec::standard(PanelSpec::paper_fig4());
    let cx = PanelContext::for_spec(&spec).expect("Fig-4 context");
    let budget = spec.session_budget.value();
    let points: Vec<_> = (0..spec.space.len())
        .step_by(37)
        .filter_map(|r| spec.space.point_at(r))
        .collect();
    per_call_ns(7, points.len() / 7, |i| {
        let p = &points[i % points.len()];
        let sk = cx
            .skeleton(p.base.preference, p.base.sharing, p.base.cds)
            .expect("skeleton");
        black_box(evaluate_static(&spec.panel, &sk, budget, p).expect("static evaluation"));
    })
}
