//! Power and silicon-area cost models for the AFE blocks — the "small,
//! low energy consumption, low-cost" axis of the paper's design-space
//! exploration (§I).

use bios_units::{Hertz, Watts};

/// A named block with its power draw and silicon area.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BlockCost {
    /// Block name for reports.
    pub name: String,
    /// Power draw.
    pub power: Watts,
    /// Silicon area in mm².
    pub area_mm2: f64,
}

/// Cost of one potentiostat control amplifier.
pub fn potentiostat_cost() -> BlockCost {
    BlockCost {
        name: "potentiostat".to_string(),
        power: Watts::from_microwatts(50.0),
        area_mm2: 0.05,
    }
}

/// Cost of one transimpedance amplifier at the given bandwidth (power rises
/// gently with bandwidth).
pub fn tia_cost(bandwidth: Hertz) -> BlockCost {
    let base_uw = 60.0;
    let speed_uw = 10.0 * (bandwidth.value() / 1e3).max(0.0).sqrt();
    BlockCost {
        name: "tia".to_string(),
        power: Watts::from_microwatts(base_uw + speed_uw),
        area_mm2: 0.04,
    }
}

/// Cost of a SAR ADC from the Walden figure of merit
/// (≈100 fJ/conversion-step): `P = FoM·2^bits·f_s`.
pub fn adc_cost(bits: u8, sample_rate: Hertz) -> BlockCost {
    let fom_j = 100e-15;
    let dynamic = fom_j * (1u64 << bits) as f64 * sample_rate.value();
    // Always-on bias grows with resolution (comparator/reference accuracy).
    let static_w = 1e-6 + 0.2e-6 * f64::from(bits);
    BlockCost {
        name: format!("adc-{bits}b"),
        power: Watts::new(static_w + dynamic),
        area_mm2: 0.02 + 0.004 * f64::from(bits.saturating_sub(8)),
    }
}

/// Cost of the waveform DAC.
pub fn dac_cost(bits: u8) -> BlockCost {
    BlockCost {
        name: format!("dac-{bits}b"),
        power: Watts::from_microwatts(20.0 + f64::from(bits)),
        area_mm2: 0.015 + 0.002 * f64::from(bits.saturating_sub(8)),
    }
}

/// Cost of an analog mux with `channels` inputs.
pub fn mux_cost(channels: usize) -> BlockCost {
    BlockCost {
        name: format!("mux-{channels}"),
        power: Watts::from_microwatts(5.0 + channels as f64),
        area_mm2: 0.008 + 0.002 * channels as f64,
    }
}

/// Extra cost of chopper clocks and switches.
pub fn chopper_cost() -> BlockCost {
    BlockCost {
        name: "chopper".to_string(),
        power: Watts::from_microwatts(15.0),
        area_mm2: 0.01,
    }
}

/// A bill of blocks with totals.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostBudget {
    blocks: Vec<BlockCost>,
}

impl CostBudget {
    /// Creates an empty budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block.
    pub fn add(&mut self, block: BlockCost) -> &mut Self {
        self.blocks.push(block);
        self
    }

    /// The blocks accumulated so far.
    pub fn blocks(&self) -> &[BlockCost] {
        &self.blocks
    }

    /// Total power.
    pub fn total_power(&self) -> Watts {
        self.blocks.iter().map(|b| b.power).sum()
    }

    /// Total silicon area in mm².
    ///
    /// An explicit loop from `-0.0`, the start and order `Iterator::sum`
    /// uses: the name is shared with `PlatformCost::total_area_mm2`, which
    /// the design-space cost kernel calls per point, so this body is
    /// checked as hot code.
    pub fn total_area_mm2(&self) -> f64 {
        let mut total = -0.0;
        for b in &self.blocks {
            total += b.area_mm2;
        }
        total
    }

    /// Renders a one-line-per-block report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            out.push_str(&format!(
                "{:<14} {:>10} {:>8.3} mm²\n",
                b.name,
                b.power.to_string(),
                b.area_mm2
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>10} {:>8.3} mm²\n",
            "TOTAL",
            self.total_power().to_string(),
            self.total_area_mm2()
        ));
        out
    }
}

impl Extend<BlockCost> for CostBudget {
    fn extend<T: IntoIterator<Item = BlockCost>>(&mut self, iter: T) {
        self.blocks.extend(iter);
    }
}

impl FromIterator<BlockCost> for CostBudget {
    fn from_iter<T: IntoIterator<Item = BlockCost>>(iter: T) -> Self {
        Self {
            blocks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_power_scales_with_bits_and_rate() {
        let slow = adc_cost(12, Hertz::new(100.0));
        let fast = adc_cost(12, Hertz::from_kilohertz(100.0));
        assert!(fast.power.value() > slow.power.value());
        let small = adc_cost(8, Hertz::from_kilohertz(100.0));
        let big = adc_cost(14, Hertz::from_kilohertz(100.0));
        // Dynamic power dominates at 100 kS/s: close to the 2⁶ ratio.
        assert!(big.power.value() / small.power.value() > 30.0);
        // And resolution costs power even at slow rates.
        let slow8 = adc_cost(8, Hertz::new(100.0));
        let slow14 = adc_cost(14, Hertz::new(100.0));
        assert!(slow14.power.value() > slow8.power.value());
    }

    #[test]
    fn budget_totals_add_up() {
        let mut b = CostBudget::new();
        b.add(potentiostat_cost());
        b.add(tia_cost(Hertz::from_kilohertz(1.0)));
        b.add(adc_cost(12, Hertz::new(100.0)));
        b.add(dac_cost(12));
        b.add(mux_cost(5));
        let p: f64 = b.blocks().iter().map(|x| x.power.value()).sum();
        assert!((b.total_power().value() - p).abs() < 1e-15);
        assert!(b.total_area_mm2() > 0.1);
        let report = b.report();
        assert!(report.contains("TOTAL"));
        assert_eq!(report.lines().count(), 6);
    }

    #[test]
    fn mux_sharing_beats_replication() {
        // The platform argument: one shared chain + mux is cheaper than
        // five dedicated chains.
        let shared: CostBudget = [
            potentiostat_cost(),
            tia_cost(Hertz::from_kilohertz(1.0)),
            adc_cost(12, Hertz::new(100.0)),
            dac_cost(12),
            mux_cost(5),
        ]
        .into_iter()
        .collect();
        let mut dedicated = CostBudget::new();
        for _ in 0..5 {
            dedicated.add(potentiostat_cost());
            dedicated.add(tia_cost(Hertz::from_kilohertz(1.0)));
            dedicated.add(adc_cost(12, Hertz::new(100.0)));
            dedicated.add(dac_cost(12));
        }
        assert!(shared.total_power().value() < dedicated.total_power().value() / 3.0);
        assert!(shared.total_area_mm2() < dedicated.total_area_mm2() / 3.0);
    }

    #[test]
    fn collection_traits() {
        let blocks = vec![potentiostat_cost(), chopper_cost()];
        let b: CostBudget = blocks.clone().into_iter().collect();
        assert_eq!(b.blocks().len(), 2);
        let mut b2 = CostBudget::new();
        b2.extend(blocks);
        assert_eq!(b2.blocks().len(), 2);
    }

    #[test]
    fn micro_watt_regime() {
        // The whole single-channel chain stays well under a milliwatt —
        // consistent with implantable-sensor budgets the paper cites.
        let b: CostBudget = [
            potentiostat_cost(),
            tia_cost(Hertz::from_kilohertz(1.0)),
            adc_cost(12, Hertz::new(100.0)),
            dac_cost(12),
        ]
        .into_iter()
        .collect();
        assert!(b.total_power().value() < 1e-3);
    }
}
