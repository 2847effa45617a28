//! Golden bit-identity digests of served output.
//!
//! The other determinism suites compare the code with itself (parallel
//! against sequential, served against blocking). These digests were
//! recorded once and pin the output itself, so a refactor of the
//! acquisition path (hoisted invariants, precomputed trajectories and
//! line shapes) cannot change a single bit without failing here.
//!
//! Each digest is FNV-1a over the `Debug` rendering of the output; Rust
//! prints floats shortest-roundtrip, so the rendering is lossless.

use advdiag::afe::{
    ChainConfig, CorrelatedDoubleSampler, CurrentRange, Fault, FaultKind, FaultPlan,
    MatchingQuality, NoiseConfig, ReadoutChain,
};
use advdiag::biochem::{Analyte, CypIsoform, CypSensor, Interferent, Oxidase, OxidaseSensor};
use advdiag::electrochem::{Electrode, PotentialProgram};
use advdiag::instrument::{run_chrono_with_interferents, run_cv, ChronoProtocol, CvProtocol};
use advdiag::platform::{ExecPolicy, PanelSpec, PlatformBuilder, SessionOptions};
use advdiag::units::{Amps, Molar, Seconds, Volts, VoltsPerSecond};

fn fnv1a(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A Fig-4 sample with an electroactive interferent, so the oxidase
/// electrodes' interference path is covered too.
fn sample(k: u64) -> Vec<(Analyte, Molar)> {
    let scale = 0.5 + 0.25 * k as f64;
    vec![
        (Analyte::Glucose, Molar::from_millimolar(2.0 * scale)),
        (Analyte::Lactate, Molar::from_millimolar(1.0 * scale)),
        (Analyte::Glutamate, Molar::from_millimolar(2.5 * scale)),
        (Analyte::Benzphetamine, Molar::from_millimolar(0.8 * scale)),
        (Analyte::Aminopyrine, Molar::from_millimolar(3.0 * scale)),
        (Analyte::Cholesterol, Molar::from_micromolar(40.0 * scale)),
        (Analyte::Ascorbate, Molar::from_micromolar(30.0 * k as f64)),
    ]
}

fn session_digest(chopper: bool, cds: bool, faulted: bool) -> u64 {
    let platform = PlatformBuilder::new(PanelSpec::paper_fig4())
        .with_chopper(chopper)
        .with_cds(cds)
        .build()
        .expect("Fig-4 builds");
    let mut h = FNV_OFFSET;
    for k in 0..8u64 {
        let seed = 0x5e55_1000 + 31 * k;
        let mut options = SessionOptions::default().with_exec(ExecPolicy::Sequential);
        if faulted {
            options = options.with_fault_plan(FaultPlan::randomized(seed ^ 0xfa, 5));
        }
        let report = platform.run_session_with(&sample(k), seed, &options);
        fnv1a(&mut h, &format!("{report:?}"));
    }
    h
}

#[test]
fn fig4_session_reports_match_recorded_digests() {
    let cases = [
        (
            "chopper/clean",
            true,
            false,
            false,
            0xa943_853d_b97a_51dcu64,
        ),
        (
            "chopper/randomized",
            true,
            false,
            true,
            0x5518_524d_16db_2f00,
        ),
        ("cds/clean", false, true, false, 0x5113_ff86_18c3_4ff1),
        ("cds/randomized", false, true, true, 0x88f8_2edc_05de_d811),
    ];
    let mut bad = Vec::new();
    for (name, chopper, cds, faulted, want) in cases {
        let got = session_digest(chopper, cds, faulted);
        if got != want {
            bad.push(format!("{name}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(bad.is_empty(), "session digests moved:\n{}", bad.join("\n"));
}

/// The noise matrix: every component alone, every pair with one zeroed,
/// all three and none, so zero-scale draws are exercised on every path.
fn noise_matrix() -> Vec<NoiseConfig> {
    let (w, f, d) = (2e-9, 5e-9, 3e-9);
    let mut out = Vec::new();
    for mask in 0..8u32 {
        out.push(NoiseConfig {
            white_density: if mask & 1 != 0 { w } else { 0.0 },
            flicker_density_1hz: if mask & 2 != 0 { f } else { 0.0 },
            drift_per_sqrt_s: if mask & 4 != 0 { d } else { 0.0 },
        });
    }
    out.push(NoiseConfig::typical_cmos());
    out
}

fn acquisition_digest(program: &PotentialProgram, dt: Seconds, range: CurrentRange) -> u64 {
    let base = ChainConfig::for_range(range).expect("paper range");
    let full_scale = base.full_scale_current().value();
    let mut h = FNV_OFFSET;
    for noise in noise_matrix() {
        let variants = [
            base.with_noise(noise),
            base.with_noise(noise).with_chopper(),
            base.with_noise(noise)
                .with_cds(CorrelatedDoubleSampler::new(MatchingQuality::Discrete)),
        ];
        for (v, config) in variants.into_iter().enumerate() {
            let mut chains = vec![ReadoutChain::new(config)];
            if v == 0 {
                let faults = vec![
                    Fault::new(FaultKind::Fouling, Seconds::new(1.0), 0.6).expect("fault"),
                    Fault::immediate(FaultKind::TransientSpike, 0.8).expect("fault"),
                    Fault::immediate(FaultKind::AdcStuckCode, 0.3).expect("fault"),
                ];
                chains.push(ReadoutChain::new(config).with_faults(faults, 77));
            }
            for chain in &chains {
                for seed in [3u64, 0xdead_beef] {
                    let samples = chain.acquire(
                        program,
                        dt,
                        seed,
                        |t, e| {
                            Amps::new(
                                0.2 * full_scale * (1.0 - (-t.value() / 0.7).exp())
                                    + 1e-7 * e.value(),
                            )
                        },
                        |t, _e| Amps::new(0.01 * full_scale * (t.value() * 3.0).sin()),
                    );
                    fnv1a(&mut h, &format!("{samples:?}"));
                }
            }
        }
    }
    h
}

#[test]
fn raw_acquisitions_match_recorded_digests() {
    let hold = PotentialProgram::Hold {
        potential: Volts::from_millivolts(550.0),
        duration: Seconds::new(4.0),
    };
    let cyclic = PotentialProgram::cyclic_single(
        Volts::new(0.1),
        Volts::new(-0.6),
        VoltsPerSecond::from_millivolts_per_second(100.0),
    );
    let cases = [
        (
            "hold",
            acquisition_digest(&hold, Seconds::new(0.05), CurrentRange::oxidase()),
            0x47a9_32c8_386f_67edu64,
        ),
        (
            "cyclic",
            acquisition_digest(
                &cyclic,
                Seconds::new(0.1),
                CurrentRange::cytochrome().scaled(0.0023),
            ),
            0xeb37_b841_1714_91c8,
        ),
    ];
    let mut bad = Vec::new();
    for (name, got, want) in cases {
        if got != want {
            bad.push(format!("{name}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(
        bad.is_empty(),
        "acquisition digests moved:\n{}",
        bad.join("\n")
    );
}

/// The instrument-level measurements the platform serves: full chrono
/// transients (with and without an interferent) and full voltammograms,
/// through plain, chopped, CDS and faulted chains.
#[test]
fn instrument_measurements_match_recorded_digests() {
    let electrode = Electrode::paper_gold_we();
    let chains = |range: CurrentRange| {
        let base = ChainConfig::for_range(range).expect("paper range");
        let faults = vec![
            Fault::new(FaultKind::ReferenceDrift, Seconds::new(5.0), 0.7).expect("fault"),
            Fault::immediate(FaultKind::Dropout, 0.5).expect("fault"),
        ];
        vec![
            ReadoutChain::new(base),
            ReadoutChain::new(base.with_chopper()),
            ReadoutChain::new(
                base.with_cds(CorrelatedDoubleSampler::new(MatchingQuality::Monolithic)),
            ),
            ReadoutChain::new(base).with_faults(faults, 5),
        ]
    };
    let glucose = OxidaseSensor::from_registry(Oxidase::Glucose).expect("registry");
    let ascorbate = Interferent::of(Analyte::Ascorbate).expect("registry");
    let mut chrono = FNV_OFFSET;
    for chain in chains(CurrentRange::oxidase()) {
        for (k, interferents) in [vec![], vec![(ascorbate, Molar::from_micromolar(80.0))]]
            .iter()
            .enumerate()
        {
            for seed in [1u64, 99] {
                let m = run_chrono_with_interferents(
                    &glucose,
                    &electrode,
                    &chain,
                    Molar::from_millimolar(1.0 + k as f64),
                    interferents,
                    &ChronoProtocol::default(),
                    seed,
                );
                fnv1a(&mut chrono, &format!("{m:?}"));
            }
        }
    }
    let cyp = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
    let mut cv = FNV_OFFSET;
    for chain in chains(CurrentRange::cytochrome().scaled(electrode.geometric_area().value())) {
        for (seed, concs) in [
            (4u64, vec![]),
            (
                5,
                vec![
                    (Analyte::Benzphetamine, Molar::from_millimolar(1.0)),
                    (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
                ],
            ),
        ] {
            let m = run_cv(
                &cyp,
                &electrode,
                &chain,
                &concs,
                &CvProtocol::default(),
                seed,
            );
            fnv1a(&mut cv, &format!("{m:?}"));
        }
    }
    let cases = [
        ("chrono", chrono, 0xb320_2a97_270d_a44eu64),
        ("cv", cv, 0xac5a_9d61_e3e2_8ff0),
    ];
    let mut bad = Vec::new();
    for (name, got, want) in cases {
        if got != want {
            bad.push(format!("{name}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(
        bad.is_empty(),
        "measurement digests moved:\n{}",
        bad.join("\n")
    );
}
