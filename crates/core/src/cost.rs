//! Platform-level cost model: electronics power/area, electrode real
//! estate, fluidics — the "small, low energy consumption, low-cost" axis
//! the paper's design-space exploration optimizes (§I).

use bios_afe::{
    adc_cost, chopper_cost, dac_cost, mux_cost, potentiostat_cost, tia_cost, CostBudget,
};
use bios_units::{Hertz, Seconds, SquareCentimeters, Watts};

/// Whether working electrodes share one readout chain through a mux or
/// each get a dedicated chain.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ReadoutSharing {
    /// One chain, multiplexed (the paper's Fig. 4 approach).
    Shared,
    /// One chain per working electrode (parallel acquisition).
    Dedicated,
}

impl core::fmt::Display for ReadoutSharing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReadoutSharing::Shared => write!(f, "shared (muxed)"),
            ReadoutSharing::Dedicated => write!(f, "dedicated per WE"),
        }
    }
}

/// Builds the electronics bill for a platform.
pub fn electronics_budget(
    working_electrodes: usize,
    sharing: ReadoutSharing,
    adc_bits: u8,
    chopper: bool,
    cds: bool,
) -> CostBudget {
    let mut budget = CostBudget::new();
    let chains = match sharing {
        ReadoutSharing::Shared => 1,
        ReadoutSharing::Dedicated => working_electrodes,
    };
    for _ in 0..chains {
        budget.add(potentiostat_cost());
        budget.add(tia_cost(Hertz::from_kilohertz(1.0)));
        budget.add(adc_cost(adc_bits, Hertz::new(100.0)));
        budget.add(dac_cost(12));
        if chopper {
            budget.add(chopper_cost());
        }
        if cds {
            // CDS needs a second matched TIA for the blank electrode.
            budget.add(tia_cost(Hertz::from_kilohertz(1.0)));
        }
    }
    if sharing == ReadoutSharing::Shared && working_electrodes > 1 {
        budget.add(mux_cost(working_electrodes));
    }
    budget
}

/// Complete platform cost summary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlatformCost {
    /// Electronics power draw.
    pub power: Watts,
    /// Electronics silicon area, mm².
    pub electronics_area_mm2: f64,
    /// Electrode + routing area, mm².
    pub electrode_area_mm2: f64,
    /// Fluidics/packaging area for chambers, mm².
    pub fluidics_area_mm2: f64,
    /// Total electrode count.
    pub electrodes: usize,
    /// Number of fluidic chambers.
    pub chambers: usize,
    /// Duration of one full measurement session.
    pub session_time: Seconds,
}

impl PlatformCost {
    /// Assembles the summary from its parts.
    pub fn assemble(
        budget: &CostBudget,
        we_area: SquareCentimeters,
        electrodes: usize,
        chambers: usize,
        session_time: Seconds,
    ) -> Self {
        Self::from_electronics(
            budget.total_power(),
            budget.total_area_mm2(),
            we_area,
            electrodes,
            chambers,
            session_time,
        )
    }

    /// As [`Self::assemble`], from an electronics bill's totals: a caller
    /// pricing many electrode geometries or session lengths over one bill
    /// sums the bill once.
    pub fn from_electronics(
        power: Watts,
        electronics_area_mm2: f64,
        we_area: SquareCentimeters,
        electrodes: usize,
        chambers: usize,
        session_time: Seconds,
    ) -> Self {
        // Each electrode occupies ~3× its active area with routing and
        // passivation margins (the paper's 0.23 mm² WEs on a mm-pitch die);
        // each extra chamber costs ~2 mm² of fluidic packaging.
        let electrode_area_mm2 = we_area.as_square_millimeters() * 3.0 * electrodes as f64;
        let fluidics_area_mm2 = 2.0 * chambers.saturating_sub(1) as f64;
        Self {
            power,
            electronics_area_mm2,
            electrode_area_mm2,
            fluidics_area_mm2,
            electrodes,
            chambers,
            session_time,
        }
    }

    /// Total die/module area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.electronics_area_mm2 + self.electrode_area_mm2 + self.fluidics_area_mm2
    }

    /// A single scalar for ranking designs: weighted power (µW), area (mm²,
    /// ×100 — silicon is the scarce resource) and session time (s, ×0.5).
    /// The weights are documented knobs, not physics.
    pub fn scalar(&self) -> f64 {
        self.power.as_microwatts() + 100.0 * self.total_area_mm2() + 0.5 * self.session_time.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_chain_is_cheaper_for_five_wes() {
        let shared = electronics_budget(5, ReadoutSharing::Shared, 12, false, false);
        let dedicated = electronics_budget(5, ReadoutSharing::Dedicated, 12, false, false);
        assert!(shared.total_power().value() < dedicated.total_power().value() / 3.0);
        assert!(shared.total_area_mm2() < dedicated.total_area_mm2() / 3.0);
    }

    #[test]
    fn options_add_cost() {
        let plain = electronics_budget(5, ReadoutSharing::Shared, 12, false, false);
        let full = electronics_budget(5, ReadoutSharing::Shared, 12, true, true);
        assert!(full.total_power().value() > plain.total_power().value());
        let more_bits = electronics_budget(5, ReadoutSharing::Shared, 14, false, false);
        assert!(more_bits.total_power().value() > plain.total_power().value());
    }

    #[test]
    fn single_we_has_no_mux() {
        let b = electronics_budget(1, ReadoutSharing::Shared, 12, false, false);
        assert!(!b.blocks().iter().any(|blk| blk.name.starts_with("mux")));
        let b5 = electronics_budget(5, ReadoutSharing::Shared, 12, false, false);
        assert!(b5.blocks().iter().any(|blk| blk.name.starts_with("mux")));
    }

    #[test]
    fn cost_assembly_totals() {
        let budget = electronics_budget(5, ReadoutSharing::Shared, 12, false, false);
        let cost = PlatformCost::assemble(
            &budget,
            SquareCentimeters::from_square_millimeters(0.23),
            7,
            1,
            Seconds::new(400.0),
        );
        assert_eq!(cost.electrodes, 7);
        assert_eq!(cost.fluidics_area_mm2, 0.0);
        assert!((cost.electrode_area_mm2 - 0.23 * 3.0 * 7.0).abs() < 1e-9);
        assert!(cost.total_area_mm2() > cost.electronics_area_mm2);
        assert!(cost.scalar() > 0.0);
    }

    #[test]
    fn chambers_cost_fluidics() {
        let budget = electronics_budget(4, ReadoutSharing::Shared, 12, false, false);
        let one = PlatformCost::assemble(
            &budget,
            SquareCentimeters::from_square_millimeters(0.23),
            6,
            1,
            Seconds::new(100.0),
        );
        let four = PlatformCost::assemble(
            &budget,
            SquareCentimeters::from_square_millimeters(0.23),
            12,
            4,
            Seconds::new(100.0),
        );
        assert!(four.total_area_mm2() > one.total_area_mm2());
        assert_eq!(four.fluidics_area_mm2, 6.0);
    }
}
