//! Input-referred noise models: white (thermal/shot), flicker (1/f) and
//! low-frequency drift.
//!
//! The paper's §II-C singles out the flicker component — "particular care
//! has to be taken for the Flicker (or 1/f) noise component, which can be
//! reduced by techniques such as chopping and Correlated Double Sampling" —
//! so the model keeps the three components separate and lets the chopper
//! and CDS blocks act on them individually.

use bios_units::{Amps, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an input-referred current-noise source.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NoiseConfig {
    /// White noise density in A/√Hz (thermal + shot).
    pub white_density: f64,
    /// Flicker noise density at 1 Hz in A/√Hz; PSD ∝ 1/f below the corner.
    pub flicker_density_1hz: f64,
    /// Drift random-walk coefficient in A/√s (electrode fouling, reference
    /// drift — the slow component CDS removes).
    pub drift_per_sqrt_s: f64,
}

impl NoiseConfig {
    /// A noiseless configuration (for deterministic tests).
    pub const NONE: NoiseConfig = NoiseConfig {
        white_density: 0.0,
        flicker_density_1hz: 0.0,
        drift_per_sqrt_s: 0.0,
    };

    /// A typical CMOS potentiostat front-end: ~50 fA/√Hz white,
    /// ~2 pA/√Hz flicker at 1 Hz, ~1 pA/√s drift.
    pub fn typical_cmos() -> Self {
        Self {
            white_density: 50e-15,
            flicker_density_1hz: 2e-12,
            drift_per_sqrt_s: 1e-12,
        }
    }

    /// Applies ideal chopper stabilization: the signal is modulated above
    /// the 1/f corner before amplification, suppressing flicker by
    /// `suppression` (typically 50×) at the cost of √2 more white noise
    /// (ripple folding).
    pub fn chopped(self, suppression: f64) -> Self {
        Self {
            white_density: self.white_density * core::f64::consts::SQRT_2,
            flicker_density_1hz: self.flicker_density_1hz / suppression.max(1.0),
            drift_per_sqrt_s: self.drift_per_sqrt_s / suppression.max(1.0),
        }
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self::typical_cmos()
    }
}

/// A streaming noise sample generator (seeded, reproducible).
///
/// Flicker noise uses the Voss–McCartney octave-bank algorithm: `N` random
/// sources, source `k` refreshed every `2^k` samples, summed — the classic
/// O(1)-per-sample pink-noise generator.
///
/// # Example
///
/// ```
/// use bios_afe::{NoiseConfig, NoiseSource};
/// use bios_units::Seconds;
///
/// let mut n = NoiseSource::new(NoiseConfig::typical_cmos(), 42);
/// let sample = n.sample(Seconds::from_millis(10.0));
/// assert!(sample.value().abs() < 1e-6); // noise, not signal
/// ```
#[derive(Debug, Clone)]
pub struct NoiseSource {
    config: NoiseConfig,
    rng: StdRng,
    // Voss–McCartney state.
    rows: [f64; 16],
    counter: u64,
    drift: f64,
}

impl NoiseSource {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: NoiseConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = [0.0; 16];
        for r in &mut rows {
            *r = rng.gen_range(-1.0..1.0);
        }
        Self {
            config,
            rng,
            rows,
            counter: 0,
            drift: 0.0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> NoiseConfig {
        self.config
    }

    /// Draws the next input-referred noise current for a sample of duration
    /// `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn sample(&mut self, dt: Seconds) -> Amps {
        let step = self.step_for(dt);
        self.draw(&step)
    }

    /// The per-sample scale factors at sample interval `dt`, for
    /// [`draw`](Self::draw). Constant over an acquisition.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub(crate) fn step_for(&self, dt: Seconds) -> NoiseStep {
        assert!(dt.value() > 0.0, "sample interval must be positive");
        let bandwidth = 0.5 / dt.value(); // Nyquist bandwidth of the sample
        let sqrt_dt = dt.value().sqrt();
        NoiseStep {
            white_sd: self.config.white_density * bandwidth.sqrt(),
            // Scale so the density near 1 Hz matches the configured value
            // for this sample rate (empirical Voss–McCartney normalization).
            pink_gain: (bandwidth.ln().max(1.0)).sqrt(),
            sqrt_dt,
            // A zero coefficient times a finite draw times a finite √dt is
            // an exact zero, so the draw's value is not needed.
            // advdiag::allow(F1, exact sentinel: only an exactly zero coefficient makes the drift increment an exact zero)
            drift_is_zero: self.config.drift_per_sqrt_s == 0.0 && sqrt_dt.is_finite(),
        }
    }

    /// [`sample`](Self::sample) with the scale factors already taken.
    ///
    /// Every draw consumes the same random numbers in the same order
    /// whatever the configuration, so streams stay aligned. A gaussian
    /// whose scale is exactly zero skips its `ln`/`cos` and contributes
    /// `+0.0`. The result stays bit-identical to computing it: the skipped
    /// term could only differ in the sign of a zero, and no such sign
    /// reaches `white + pink + drift`, because the drift walk starts at
    /// `+0.0` and can never become `-0.0`.
    pub(crate) fn draw(&mut self, step: &NoiseStep) -> Amps {
        // advdiag::allow(F1, exact sentinel: only an exactly zero scale makes the white term an exact zero)
        let white = if step.white_sd == 0.0 {
            self.skip_gaussian();
            0.0
        } else {
            self.gaussian() * step.white_sd
        };

        // Pink noise: refresh row k every 2^k samples.
        self.counter = self.counter.wrapping_add(1);
        let flips = self.counter.trailing_zeros().min(15);
        let idx = flips as usize;
        self.rows[idx] = self.rng.gen_range(-1.0..1.0);
        // Summed in row order from -0.0, the additive identity
        // `Iterator::sum` starts from.
        let mut rows_sum = -0.0;
        for r in &self.rows {
            rows_sum += r;
        }
        let pink_raw = rows_sum / (16f64).sqrt();
        let pink = pink_raw * self.config.flicker_density_1hz * step.pink_gain;

        // Random-walk drift.
        if step.drift_is_zero {
            self.skip_gaussian();
        } else {
            self.drift += self.gaussian() * self.config.drift_per_sqrt_s * step.sqrt_dt;
        }

        Amps::new(white + pink + self.drift)
    }

    /// The accumulated drift component alone (shared between matched
    /// channels; the CDS model subtracts it).
    pub fn drift(&self) -> Amps {
        Amps::new(self.drift)
    }

    /// Resets the drift walk (e.g. after an electrode refresh).
    pub fn reset_drift(&mut self) {
        self.drift = 0.0;
    }

    fn gaussian(&mut self) -> f64 {
        // Box–Muller.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Consumes a gaussian's two uniform draws without transforming them.
    fn skip_gaussian(&mut self) {
        let _: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let _: f64 = self.rng.gen_range(0.0..1.0);
    }
}

/// A [`NoiseSource`]'s per-sample scale factors at one sample interval,
/// from [`NoiseSource::step_for`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NoiseStep {
    white_sd: f64,
    pink_gain: f64,
    sqrt_dt: f64,
    drift_is_zero: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(samples: &[f64]) -> f64 {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
    }

    #[test]
    fn zero_config_is_silent() {
        let mut n = NoiseSource::new(NoiseConfig::NONE, 1);
        for _ in 0..100 {
            assert_eq!(n.sample(Seconds::from_millis(1.0)).value(), 0.0);
        }
    }

    #[test]
    fn same_seed_reproduces() {
        let mut a = NoiseSource::new(NoiseConfig::typical_cmos(), 7);
        let mut b = NoiseSource::new(NoiseConfig::typical_cmos(), 7);
        for _ in 0..50 {
            assert_eq!(
                a.sample(Seconds::from_millis(5.0)).value(),
                b.sample(Seconds::from_millis(5.0)).value()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(NoiseConfig::typical_cmos(), 1);
        let mut b = NoiseSource::new(NoiseConfig::typical_cmos(), 2);
        let same = (0..20).all(|_| {
            a.sample(Seconds::from_millis(5.0)).value()
                == b.sample(Seconds::from_millis(5.0)).value()
        });
        assert!(!same);
    }

    #[test]
    fn white_noise_sd_scales_with_bandwidth() {
        let cfg = NoiseConfig {
            white_density: 1e-12,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: 0.0,
        };
        let collect = |dt_s: f64, seed: u64| {
            let mut n = NoiseSource::new(cfg, seed);
            (0..4000)
                .map(|_| n.sample(Seconds::new(dt_s)).value())
                .collect::<Vec<_>>()
        };
        let fast = sd(&collect(1e-4, 3)); // 5 kHz bandwidth
        let slow = sd(&collect(1e-2, 4)); // 50 Hz bandwidth
        let ratio = fast / slow;
        assert!((ratio - 10.0).abs() < 1.5, "ratio {ratio}");
    }

    #[test]
    fn chopping_suppresses_flicker_and_drift() {
        let cfg = NoiseConfig::typical_cmos();
        let chopped = cfg.chopped(50.0);
        assert!(chopped.flicker_density_1hz < cfg.flicker_density_1hz / 40.0);
        assert!(chopped.drift_per_sqrt_s < cfg.drift_per_sqrt_s / 40.0);
        assert!(chopped.white_density > cfg.white_density);
    }

    #[test]
    fn flicker_dominates_at_slow_sampling() {
        // Biosensing samples slowly (paper: signals take ~30 s), exactly the
        // regime where 1/f dwarfs white noise.
        let cfg = NoiseConfig::typical_cmos();
        let mut n = NoiseSource::new(
            NoiseConfig {
                drift_per_sqrt_s: 0.0,
                ..cfg
            },
            11,
        );
        let samples: Vec<f64> = (0..2000)
            .map(|_| n.sample(Seconds::from_millis(100.0)).value())
            .collect();
        let total_sd = sd(&samples);
        let white_only_sd = cfg.white_density * (0.5f64 / 0.1).sqrt();
        assert!(
            total_sd > 5.0 * white_only_sd,
            "flicker must dominate: {total_sd} vs white {white_only_sd}"
        );
    }

    #[test]
    fn drift_accumulates_and_resets() {
        let cfg = NoiseConfig {
            white_density: 0.0,
            flicker_density_1hz: 0.0,
            drift_per_sqrt_s: 1e-12,
        };
        let mut n = NoiseSource::new(cfg, 5);
        for _ in 0..1000 {
            let _ = n.sample(Seconds::new(1.0));
        }
        assert!(n.drift().value().abs() > 0.0);
        n.reset_drift();
        assert_eq!(n.drift().value(), 0.0);
    }
}
