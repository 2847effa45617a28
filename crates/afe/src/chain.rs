//! The full acquisition chain of Fig. 2: voltage generator → potentiostat →
//! cell → transimpedance amplifier → conditioning (chopper/CDS) → ADC.

use crate::adc::Adc;
use crate::cds::CorrelatedDoubleSampler;
use crate::current_range::CurrentRange;
use crate::error::AfeError;
use crate::fault::{Fault, FaultRuntime};
use crate::noise::{NoiseConfig, NoiseSource, NoiseStep};
use crate::potentiostat::Potentiostat;
use crate::tia::{Tia, TiaStream};
use crate::vgen::VoltageGenerator;
use bios_electrochem::PotentialProgram;
use bios_units::{Amps, Hertz, Ohms, Seconds, Volts};

/// Flicker suppression a practical chopper achieves.
pub const CHOPPER_SUPPRESSION: f64 = 50.0;

/// Static configuration of a readout chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainConfig {
    /// The current-to-voltage stage.
    pub tia: Tia,
    /// The digitizer.
    pub adc: Adc,
    /// Input-referred noise (amplifier white + flicker, electrode drift).
    pub noise: NoiseConfig,
    /// Whether chopper stabilization is enabled (suppresses amplifier
    /// flicker ×[`CHOPPER_SUPPRESSION`], costs √2 white noise).
    pub chopper: bool,
    /// Correlated double sampling against a blank electrode, if any.
    pub cds: Option<CorrelatedDoubleSampler>,
    /// The waveform DAC.
    pub vgen: VoltageGenerator,
    /// The cell-potential control loop.
    pub potentiostat: Potentiostat,
}

impl ChainConfig {
    /// A chain sized for the given current readout class: the TIA feedback
    /// is chosen so the class's full scale spans the ADC range, and the ADC
    /// has one bit of margin over the class's requirement.
    ///
    /// # Errors
    ///
    /// Propagates block construction errors (cannot occur for the paper's
    /// two classes).
    pub fn for_range(range: CurrentRange) -> Result<Self, AfeError> {
        let rail = Volts::new(1.65);
        let feedback = Ohms::new(rail.value() / range.full_scale().value());
        let tia = Tia::new(feedback, Hertz::from_kilohertz(1.0), rail)?.inverted();
        let adc = Adc::new(
            (range.required_bits() + 1).clamp(8, 16),
            rail,
            Hertz::new(100.0),
        )?;
        Ok(Self {
            tia,
            adc,
            noise: NoiseConfig::typical_cmos(),
            chopper: false,
            cds: None,
            vgen: VoltageGenerator::paper_default()?,
            potentiostat: Potentiostat::typical_cmos()?,
        })
    }

    /// Enables the chopper.
    pub fn with_chopper(mut self) -> Self {
        self.chopper = true;
        self
    }

    /// Enables CDS with the given sampler.
    pub fn with_cds(mut self, cds: CorrelatedDoubleSampler) -> Self {
        self.cds = Some(cds);
        self
    }

    /// Overrides the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// The input current that exactly spans the chain: the TIA's
    /// full-scale input. Fault models and QC gates use this as the
    /// "rail" reference for saturation and spike amplitudes.
    pub fn full_scale_current(&self) -> Amps {
        self.tia.full_scale_input()
    }
}

/// One digitized sample out of the chain.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Sample time.
    pub t: Seconds,
    /// Programmed setpoint potential.
    pub setpoint: Volts,
    /// Potential actually applied to the cell.
    pub applied: Volts,
    /// Raw ADC code.
    pub code: i32,
    /// Code converted back to volts.
    pub volts: Volts,
    /// Input current estimate (volts ÷ TIA gain) — what the instrument
    /// layer analyzes.
    pub current: Amps,
}

/// A runnable acquisition chain.
///
/// # Example
///
/// ```
/// use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
/// use bios_electrochem::PotentialProgram;
/// use bios_units::{Amps, Seconds, Volts};
///
/// # fn main() -> Result<(), bios_afe::AfeError> {
/// let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
/// let program = PotentialProgram::Hold {
///     potential: Volts::from_millivolts(650.0),
///     duration: Seconds::new(2.0),
/// };
/// // A fake 100 nA cell.
/// let samples = chain.acquire(&program, Seconds::from_millis(100.0), 42,
///     |_t, _e| Amps::from_nanoamps(100.0), |_t, _e| Amps::ZERO)?;
/// assert_eq!(samples.len(), 21);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReadoutChain {
    config: ChainConfig,
    faults: Vec<Fault>,
    fault_seed: u64,
}

impl ReadoutChain {
    /// Wraps a configuration.
    pub fn new(config: ChainConfig) -> Self {
        Self {
            config,
            faults: Vec::new(),
            fault_seed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Injects faults into every subsequent acquisition. `fault_seed`
    /// drives the faults' per-sample randomness (spikes, dropouts) —
    /// typically [`FaultPlan::chain_seed`](crate::FaultPlan::chain_seed)
    /// — independently of the acquisition noise seed.
    pub fn with_faults(mut self, faults: Vec<Fault>, fault_seed: u64) -> Self {
        self.faults = faults;
        self.fault_seed = fault_seed;
        self
    }

    /// The faults this chain injects.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A stable content hash of everything that determines this chain's
    /// response to a given `(program, dt, seed)`: the full block
    /// configuration, the injected faults and the fault seed.
    ///
    /// Two chains with equal hashes produce bit-identical acquisitions for
    /// identical inputs, which is what makes the platform layer's trace
    /// memoization sound. Rust's `Debug` float formatting is
    /// shortest-roundtrip (lossless), so distinct configurations cannot
    /// collide through formatting.
    pub fn content_hash(&self) -> u64 {
        let repr = format!("{:?}|{:?}|{}", self.config, self.faults, self.fault_seed);
        // FNV-1a over the canonical representation.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in repr.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Measures the chain's own input-referred baseline noise: a dry
    /// acquisition with grounded inputs held at 0 V over `window`,
    /// returning the standard deviation of the recorded current.
    ///
    /// This is the commissioning number a QC gate compares live baselines
    /// against. Injected faults are exercised by the dry run too, so a
    /// faulted chain's self-noise diverges from its fault-free twin's —
    /// signal-path attenuation (open electrode, stale mux) shows up as an
    /// implausibly quiet channel. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `dt` or `window` is non-positive.
    pub fn baseline_noise_reference(
        &self,
        dt: Seconds,
        window: Seconds,
        seed: u64,
    ) -> Result<Amps, AfeError> {
        if window.value() <= 0.0 {
            return Err(AfeError::invalid("window", "must be positive"));
        }
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: window,
        };
        let samples = self.acquire(&program, dt, seed, |_t, _e| Amps::ZERO, |_t, _e| Amps::ZERO)?;
        let n = samples.len() as f64;
        let mean = samples.iter().map(|s| s.current.value()).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|s| (s.current.value() - mean).powi(2))
            .sum::<f64>()
            / n;
        Ok(Amps::new(var.sqrt()))
    }

    /// Built-in self-test: drives the chain with a known synthetic input
    /// current (half of full scale, the dummy-cell trick) and returns the
    /// mean recovered current over the hold, skipping the first quarter
    /// for settling.
    ///
    /// Comparing a live chain's response against its commissioning value
    /// exposes gain errors the noise floor cannot — signal-path
    /// attenuation hides below one ADC code at quiescent input, but not
    /// under a half-scale test signal. Injected faults are exercised by
    /// the self-test. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `dt` or `window` is non-positive.
    pub fn self_test_response(
        &self,
        dt: Seconds,
        window: Seconds,
        seed: u64,
    ) -> Result<Amps, AfeError> {
        if window.value() <= 0.0 {
            return Err(AfeError::invalid("window", "must be positive"));
        }
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: window,
        };
        let test = Amps::new(0.5 * self.config.full_scale_current().value());
        let samples = self.acquire(&program, dt, seed, |_t, _e| test, |_t, _e| Amps::ZERO)?;
        let skip = samples.len() / 4;
        let tail = &samples[skip..];
        let mean = tail.iter().map(|s| s.current.value()).sum::<f64>() / tail.len() as f64;
        Ok(Amps::new(mean))
    }

    /// Runs the chain over `program`, sampling every `dt`.
    ///
    /// `active` maps `(t, applied potential)` to the active working
    /// electrode's current; `blank` to the enzyme-free blank electrode's
    /// (only consulted when CDS is enabled — pass a closure returning
    /// [`Amps::ZERO`] otherwise).
    ///
    /// This is [`trajectory`](Self::trajectory) followed by
    /// [`stream`](Self::stream); callers that acquire the same program
    /// repeatedly can plan the trajectory once and stream it per run.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if the program violates the voltage generator's
    /// range or slew limits, or `dt` is non-positive.
    pub fn acquire<A, B>(
        &self,
        program: &PotentialProgram,
        dt: Seconds,
        seed: u64,
        mut active: A,
        mut blank: B,
    ) -> Result<Vec<Sample>, AfeError>
    where
        A: FnMut(Seconds, Volts) -> Amps,
        B: FnMut(Seconds, Volts) -> Amps,
    {
        let trajectory = self.trajectory(program, dt)?;
        self.stream(
            &trajectory,
            seed,
            |_, p| active(p.t, p.applied),
            |_, p| blank(p.t, p.applied),
        )
    }

    /// The part of an acquisition of `program` sampled every `dt` that no
    /// seed, input current or fault can change: each sample's time, DAC
    /// setpoint and applied cell potential.
    ///
    /// Faults act on currents, the TIA output and codes only, so a chain
    /// and its faulted twins (same [`ChainConfig`]) share one trajectory.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if the program violates the voltage generator's
    /// range or slew limits, or `dt` is non-positive.
    pub fn trajectory(
        &self,
        program: &PotentialProgram,
        dt: Seconds,
    ) -> Result<Trajectory, AfeError> {
        if dt.value() <= 0.0 {
            return Err(AfeError::invalid("dt", "must be positive"));
        }
        self.config.vgen.check(program)?;
        let mut pstat = self
            .config
            .potentiostat
            .streamer(program.potential_at(Seconds::ZERO));
        let fraction = self.config.potentiostat.step_fraction(dt);
        // A Hold program's DAC setpoint is the same at every sample
        // (realize = quantize(potential), independent of t).
        let hold_setpoint = match program {
            PotentialProgram::Hold { .. } => {
                Some(self.config.vgen.realize(program, Seconds::ZERO)?)
            }
            _ => None,
        };
        let duration = program.duration();
        let steps = (duration.value() / dt.value()).round() as usize;
        let mut points = Vec::with_capacity(steps + 1);
        for k in 0..=steps {
            let t = Seconds::new((k as f64 * dt.value()).min(duration.value()));
            let setpoint = match hold_setpoint {
                Some(v) => v,
                None => self.config.vgen.realize(program, t)?,
            };
            let applied = pstat.step_with(setpoint, fraction);
            points.push(TrajectoryPoint {
                t,
                setpoint,
                applied,
            });
        }
        Ok(Trajectory {
            config: self.config,
            dt,
            points,
        })
    }

    /// Streams the noise, the input currents, the faults and the
    /// digitizer over a planned `trajectory`: the per-run half of
    /// [`acquire`](Self::acquire), bit-identical to it for the same seed.
    ///
    /// `active` and `blank` receive each sample's index and trajectory
    /// point, so a caller can look up per-sample work it planned too.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError::InvalidParameter`] if `trajectory` was planned
    /// on a chain with a different [`ChainConfig`].
    pub fn stream<A, B>(
        &self,
        trajectory: &Trajectory,
        seed: u64,
        mut active: A,
        mut blank: B,
    ) -> Result<Vec<Sample>, AfeError>
    where
        A: FnMut(usize, &TrajectoryPoint) -> Amps,
        B: FnMut(usize, &TrajectoryPoint) -> Amps,
    {
        if trajectory.config != self.config {
            return Err(AfeError::invalid(
                "trajectory",
                "planned for a different chain configuration",
            ));
        }
        let mut state = StreamState::new(self, trajectory.dt, seed);
        let mut out = Vec::with_capacity(trajectory.points.len());
        for (k, p) in trajectory.points.iter().enumerate() {
            let i_active = active(k, p);
            let i_blank = if state.cds_residual.is_some() {
                blank(k, p)
            } else {
                Amps::ZERO
            };
            out.push(state.stream_sample(k, p, i_active, i_blank));
        }
        Ok(out)
    }
}

/// One sample's fault-independent state: see [`ReadoutChain::trajectory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Sample time.
    pub t: Seconds,
    /// Programmed (DAC-quantized) setpoint potential.
    pub setpoint: Volts,
    /// Potential the potentiostat actually applies to the cell.
    pub applied: Volts,
}

/// A planned acquisition: the sample times and potentials of one program
/// at one sample interval through one chain configuration, from
/// [`ReadoutChain::trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    config: ChainConfig,
    dt: Seconds,
    points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// One point per sample, in time order.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }
}

/// The per-run state of one [`ReadoutChain::stream`]: noise generators,
/// filter states and fault runtime, plus every per-sample constant taken
/// once.
struct StreamState<'a> {
    config: &'a ChainConfig,
    amp_active: NoiseSource,
    amp_blank: NoiseSource,
    drift: NoiseSource,
    amp_step: NoiseStep,
    drift_step: NoiseStep,
    tia: TiaStream,
    tia_fraction: f64,
    cds_residual: Option<f64>,
    fault_rt: FaultRuntime,
    inject: bool,
    max_code: i32,
}

impl<'a> StreamState<'a> {
    fn new(chain: &'a ReadoutChain, dt: Seconds, seed: u64) -> Self {
        let config = &chain.config;
        // Amplifier-side noise (white + flicker): chopped if enabled.
        let amp_cfg = NoiseConfig {
            drift_per_sqrt_s: 0.0,
            ..config.noise
        };
        let amp_cfg = if config.chopper {
            amp_cfg.chopped(CHOPPER_SUPPRESSION)
        } else {
            amp_cfg
        };
        // Electrode-side drift: shared between active and blank electrodes,
        // untouched by the chopper, attenuated by CDS matching.
        let drift_cfg = NoiseConfig {
            white_density: 0.0,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: config.noise.drift_per_sqrt_s,
        };
        let amp_active = NoiseSource::new(amp_cfg, seed);
        let amp_blank = NoiseSource::new(amp_cfg, seed.wrapping_add(1));
        let drift = NoiseSource::new(drift_cfg, seed.wrapping_add(2));
        let amp_step = amp_active.step_for(dt);
        let drift_step = drift.step_for(dt);
        // Fault injection sits between the ideal blocks: currents are
        // perturbed before the TIA, compliance collapse clips its output,
        // and code faults hit after quantization. A no-op runtime (all
        // severities zero) is skipped entirely so fault-free acquisitions
        // stay bit-identical to the pre-fault-model chain.
        let fault_rt =
            FaultRuntime::new(&chain.faults, chain.fault_seed, config.full_scale_current());
        let inject = !fault_rt.is_noop();
        Self {
            config,
            amp_active,
            amp_blank,
            drift,
            amp_step,
            drift_step,
            tia: config.tia.streamer(),
            tia_fraction: config.tia.step_fraction(dt),
            cds_residual: config.cds.as_ref().map(|c| c.residual_drift_fraction()),
            fault_rt,
            inject,
            max_code: (1i32 << (config.adc.bits() - 1)) - 1,
        }
    }

    /// One sample through noise, CDS, faults, TIA and ADC, given the
    /// electrode currents (`blank` is read only under CDS).
    // advdiag::hot — the per-sample streaming body: runs once per sample of
    // every served acquisition
    fn stream_sample(
        &mut self,
        k: usize,
        p: &TrajectoryPoint,
        active: Amps,
        blank: Amps,
    ) -> Sample {
        let t = p.t;
        let drift_now = self.drift.draw(&self.drift_step);
        let i_active = active + self.amp_active.draw(&self.amp_step);
        let i_meas = match self.cds_residual {
            Some(residual) => {
                let i_blank = blank + self.amp_blank.draw(&self.amp_step);
                // Shared drift attenuates by the matching rejection.
                i_active - i_blank + drift_now * residual
            }
            None => i_active + drift_now,
        };
        let i_meas = if self.inject {
            self.fault_rt.apply_current(k, t, i_meas)
        } else {
            i_meas
        };
        let v = self.tia.process_with(i_meas, self.tia_fraction);
        let v = if self.inject {
            self.fault_rt.apply_voltage(t, v, self.config.tia.rail())
        } else {
            v
        };
        let code = self.config.adc.quantize(v);
        let code = if self.inject {
            self.fault_rt.apply_code(k, t, code, self.max_code)
        } else {
            code
        };
        let volts = self.config.adc.to_volts(code);
        let current = Amps::new(volts.value() / self.config.tia.gain());
        Sample {
            t,
            setpoint: p.setpoint,
            applied: p.applied,
            code,
            volts,
            current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cds::MatchingQuality;
    use crate::fault::FaultKind;

    fn hold(mv: f64, secs: f64) -> PotentialProgram {
        PotentialProgram::Hold {
            potential: Volts::from_millivolts(mv),
            duration: Seconds::new(secs),
        }
    }

    fn chain() -> ReadoutChain {
        ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase()).expect("config"))
    }

    fn sd(samples: &[f64]) -> f64 {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
    }

    #[test]
    fn recovers_dc_current_within_resolution() {
        let c = chain();
        let truth = Amps::from_nanoamps(500.0);
        let samples = c
            .acquire(
                &hold(650.0, 5.0),
                Seconds::from_millis(100.0),
                1,
                |_, _| truth,
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        // Average the tail to beat the noise.
        let tail: Vec<f64> = samples[10..].iter().map(|s| s.current.value()).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - truth.value()).abs() < CurrentRange::oxidase().resolution().value(),
            "mean {mean}"
        );
    }

    #[test]
    fn acquisition_is_reproducible_by_seed() {
        // Typical CMOS noise sits below one ADC LSB (≈2.4 nA of input
        // current here), so use electrode-scale noise to make the seed
        // visible in the codes.
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig {
                white_density: 2e-9,
                flicker_density_1hz: 0.0,
                drift_per_sqrt_s: 0.0,
            });
        let c = ReadoutChain::new(cfg);
        let run = |seed| {
            c.acquire(
                &hold(650.0, 1.0),
                Seconds::from_millis(50.0),
                seed,
                |_, _| Amps::from_nanoamps(100.0),
                |_, _| Amps::ZERO,
            )
            .expect("acquire")
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn chopper_reduces_low_frequency_noise() {
        // Flicker-dominated noise scaled above the ADC LSB so the effect
        // survives quantization.
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig {
                white_density: 1e-10,
                flicker_density_1hz: 1e-8,
                drift_per_sqrt_s: 0.0,
            });
        let noisy = ReadoutChain::new(cfg);
        let chopped = ReadoutChain::new(cfg.with_chopper());
        let measure = |c: &ReadoutChain, seed: u64| {
            let s = c
                .acquire(
                    &hold(650.0, 60.0),
                    Seconds::from_millis(250.0),
                    seed,
                    |_, _| Amps::ZERO,
                    |_, _| Amps::ZERO,
                )
                .expect("acquire");
            sd(&s.iter().map(|x| x.current.value()).collect::<Vec<_>>())
        };
        // Average over several seeds for a stable comparison.
        let n_runs = 8;
        let mean_noisy: f64 =
            (0..n_runs).map(|k| measure(&noisy, 100 + k)).sum::<f64>() / n_runs as f64;
        let mean_chop: f64 =
            (0..n_runs).map(|k| measure(&chopped, 200 + k)).sum::<f64>() / n_runs as f64;
        assert!(
            mean_chop < mean_noisy * 0.6,
            "chopper must cut 1/f-dominated noise: {mean_chop} vs {mean_noisy}"
        );
    }

    #[test]
    fn cds_subtracts_blank_interferent() {
        let cfg = ChainConfig::for_range(CurrentRange::oxidase())
            .expect("config")
            .with_noise(NoiseConfig::NONE)
            .with_cds(CorrelatedDoubleSampler::new(MatchingQuality::Monolithic));
        let c = ReadoutChain::new(cfg);
        let signal = Amps::from_nanoamps(300.0);
        let interferent = Amps::from_nanoamps(80.0);
        let samples = c
            .acquire(
                &hold(650.0, 2.0),
                Seconds::from_millis(100.0),
                3,
                move |_, _| signal + interferent,
                move |_, _| interferent,
            )
            .expect("acquire");
        let last = samples.last().expect("nonempty");
        assert!(
            (last.current.value() - signal.value()).abs()
                < 2.0 * CurrentRange::oxidase().resolution().value(),
            "cds output {}",
            last.current.value()
        );
    }

    #[test]
    fn rejects_bad_programs_and_dt() {
        let c = chain();
        let over_range = hold(1500.0, 1.0);
        assert!(c
            .acquire(
                &over_range,
                Seconds::from_millis(10.0),
                1,
                |_, _| Amps::ZERO,
                |_, _| { Amps::ZERO }
            )
            .is_err());
        assert!(c
            .acquire(
                &hold(0.0, 1.0),
                Seconds::ZERO,
                1,
                |_, _| Amps::ZERO,
                |_, _| Amps::ZERO
            )
            .is_err());
    }

    #[test]
    fn faulted_twins_share_the_trajectory_and_foreign_plans_are_refused() {
        let c = chain();
        let program = hold(650.0, 2.0);
        let dt = Seconds::from_millis(100.0);
        let faults = vec![Fault::immediate(FaultKind::ElectrodeOpen, 1.0).expect("fault")];
        let twin = c.clone().with_faults(faults, 9);
        let plan = c.trajectory(&program, dt).expect("plan");
        assert_eq!(plan, twin.trajectory(&program, dt).expect("twin plan"));
        let input = |_: usize, _: &TrajectoryPoint| Amps::from_nanoamps(200.0);
        assert_eq!(
            twin.stream(&plan, 4, input, input).expect("stream"),
            twin.acquire(
                &program,
                dt,
                4,
                |_, _| Amps::from_nanoamps(200.0),
                |_, _| { Amps::ZERO }
            )
            .expect("acquire")
        );
        let chopped = ReadoutChain::new(c.config().with_chopper());
        assert!(chopped.stream(&plan, 4, input, input).is_err());
    }

    #[test]
    fn saturation_clips_codes_not_panics() {
        let c = chain();
        let samples = c
            .acquire(
                &hold(650.0, 1.0),
                Seconds::from_millis(100.0),
                1,
                |_, _| Amps::from_microamps(100.0), // 10× over range
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        let max_code = (1 << (c.config().adc.bits() - 1)) - 1;
        // Codes approach (or pin at) the positive rail without overflow.
        assert!(samples.iter().all(|s| s.code <= max_code));
        assert!(samples.last().expect("nonempty").code >= max_code - 1);
    }

    #[test]
    fn cv_program_passes_through_dac_staircase() {
        let c =
            ReadoutChain::new(ChainConfig::for_range(CurrentRange::cytochrome()).expect("config"));
        let cv = PotentialProgram::cyclic_single(
            Volts::new(0.1),
            Volts::new(-0.8),
            bios_units::VoltsPerSecond::from_millivolts_per_second(20.0),
        );
        let samples = c
            .acquire(
                &cv,
                Seconds::from_millis(500.0),
                4,
                |_, _| Amps::ZERO,
                |_, _| Amps::ZERO,
            )
            .expect("acquire");
        // The setpoint follows the triangle within one DAC LSB.
        for s in &samples {
            let ideal = cv.potential_at(s.t);
            assert!(
                (s.setpoint.value() - ideal.value()).abs()
                    <= c.config().vgen.lsb().value() / 2.0 + 1e-12
            );
        }
    }
}
