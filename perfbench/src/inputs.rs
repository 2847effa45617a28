//! Seeded workload inputs. Everything a run feeds the program derives
//! from `--seed` through [`mix`], so the same seed always yields the same
//! requests, in the same order.

use bios_biochem::tables::performance_of;
use bios_biochem::Analyte;
use bios_server::{ServiceTier, SessionRequest};
use bios_units::Molar;

/// The Fig-4 panel's analytes, in panel order.
pub const FIG4_ANALYTES: [Analyte; 6] = [
    Analyte::Glucose,
    Analyte::Lactate,
    Analyte::Glutamate,
    Analyte::Benzphetamine,
    Analyte::Aminopyrine,
    Analyte::Cholesterol,
];

/// SplitMix64 finaliser over a pair: a well-spread, order-sensitive hash.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed of client `client`'s `k`-th session.
pub fn session_seed(workload_seed: u64, client: u64, k: u64) -> u64 {
    mix(mix(workload_seed, client), k)
}

/// True concentrations for one session: each analyte drawn log-uniformly
/// inside its Table III linear range, from the session seed alone.
pub fn sample_for(seed: u64) -> Vec<(Analyte, Molar)> {
    FIG4_ANALYTES
        .iter()
        .enumerate()
        .map(|(i, &analyte)| {
            let range = performance_of(analyte)
                .expect("every Fig-4 analyte has a Table III row")
                .linear_range();
            let (lo, hi) = (range.lo().value().ln(), range.hi().value().ln());
            let u = unit(mix(seed, 0xc0c0 + i as u64));
            (analyte, Molar::new((lo + u * (hi - lo)).exp()))
        })
        .collect()
}

/// The clinical tier of a session: always routine on clean fleets; on
/// the chaos fleet one in four is stat and one in four best-effort.
pub fn tier_for(mixed: bool, seed: u64) -> ServiceTier {
    if !mixed {
        return ServiceTier::Routine;
    }
    match mix(seed, 0x7157) % 4 {
        0 => ServiceTier::Stat,
        1 => ServiceTier::BestEffort,
        _ => ServiceTier::Routine,
    }
}

/// Client `client`'s `k`-th request, sent from `device`.
pub fn request(
    workload_seed: u64,
    mixed_tiers: bool,
    client: u64,
    k: u64,
    device: u64,
) -> SessionRequest {
    let seed = session_seed(workload_seed, client, k);
    SessionRequest {
        device,
        tier: tier_for(mixed_tiers, seed),
        sample: sample_for(seed),
        seed,
    }
}

/// The `block`-th block of the explore query order: a seeded
/// Fisher–Yates permutation of `0..panels`. Running whole blocks keeps
/// every panel equally often in the mix.
pub fn panel_block(workload_seed: u64, block: u64, panels: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..panels).collect();
    for i in (1..panels).rev() {
        let j = (mix(mix(workload_seed, 0xb10c), block * 64 + i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for client in 0..16 {
            for k in 0..8 {
                let a = request(7, true, client, k, client + 256 * k);
                let b = request(7, true, client, k, client + 256 * k);
                assert_eq!(a, b);
            }
        }
        assert_ne!(request(7, false, 0, 0, 0), request(8, false, 0, 0, 0));
        assert_ne!(request(7, false, 0, 0, 0), request(7, false, 0, 1, 0));
        assert_ne!(request(7, false, 0, 0, 0), request(7, false, 1, 0, 0));
    }

    #[test]
    fn concentrations_stay_inside_the_linear_range() {
        for s in 0..500 {
            for (analyte, c) in sample_for(mix(3, s)) {
                let range = performance_of(analyte).expect("row").linear_range();
                assert!(c.value() >= range.lo().value() && c.value() <= range.hi().value());
            }
        }
    }

    #[test]
    fn panel_order_is_balanced() {
        for seed in 0..20 {
            let mut counts = [0usize; 7];
            let mut flat = Vec::new();
            for block in 0..30 {
                let order = panel_block(seed, block, 7);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..7).collect::<Vec<_>>(),
                    "a block is a permutation"
                );
                for p in order {
                    counts[p] += 1;
                    flat.push(p);
                }
            }
            assert_eq!(counts, [30; 7]);
            assert_eq!(
                flat,
                (0..30)
                    .flat_map(|b| panel_block(seed, b, 7))
                    .collect::<Vec<_>>()
            );
        }
        // The order is seeded, not fixed.
        assert_ne!(panel_block(1, 0, 7), panel_block(2, 0, 7));
    }

    #[test]
    fn chaos_tiers_are_mixed_and_clean_tiers_are_routine() {
        let tiers: Vec<ServiceTier> = (0..400).map(|s| tier_for(true, mix(9, s))).collect();
        for t in [
            ServiceTier::Stat,
            ServiceTier::Routine,
            ServiceTier::BestEffort,
        ] {
            assert!(tiers.contains(&t));
        }
        assert!((0..50).all(|s| tier_for(false, s) == ServiceTier::Routine));
    }
}
