//! Closed-form bounds from the paper and from this reproduction's analysis.
//!
//! These formulas are plotted next to measured ratios in experiments E1–E3
//! so the *shape* of the trade-off can be compared against theory. None of
//! them are used by the algorithms themselves.

use distfl_instance::{spread, Instance};

/// The `H_n` harmonic number — the sequential greedy's tight approximation
/// factor for non-metric instances.
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

/// The paper's headline bound `√k · (m·ρ)^{1/√k} · ln(m+n)` for round
/// budget `k` on an `m`-facility, `n`-client instance of spread `rho`.
///
/// # Panics
///
/// Panics if `k == 0` or any size is zero.
pub fn paper_bound(k: u32, m: usize, n: usize, rho: f64) -> f64 {
    assert!(k > 0 && m > 0 && n > 0, "degenerate parameters");
    let sqrt_k = f64::from(k).sqrt();
    let base = (m as f64 * rho.max(1.0)).max(std::f64::consts::E);
    sqrt_k * base.powf(1.0 / sqrt_k) * ((m + n) as f64).ln().max(1.0)
}

/// This reproduction's PayDual bound `γ(s) · (1 + ln(m+n))` with
/// `γ(s) = B^{1/s}` the per-phase raise factor of the instance. It is
/// checked against the exact optimum by the
/// `paydual_stays_within_its_approximation_bound` property in
/// `tests/properties.rs` (at most 8 facilities) and measured by E1/E4.
pub fn paydual_bound(instance: &Instance, phases: u32) -> f64 {
    let gamma = spread::phase_factor(instance, phases);
    let log_term =
        1.0 + ((instance.num_facilities() + instance.num_clients()) as f64).ln().max(0.0);
    gamma * log_term
}

/// The CONGEST round count PayDual uses for `s` phases: one bootstrap
/// round, one client-initialization round, three rounds per phase
/// (offer / open / connect) with one spare phase for the final-offer
/// boundary case, and one harvest round.
pub fn paydual_rounds(phases: u32) -> u32 {
    3 * (phases + 1) + 2
}

/// The round budget `k` of the paper that corresponds to `s` PayDual
/// phases (the paper counts total rounds).
pub fn k_of_phases(phases: u32) -> u32 {
    paydual_rounds(phases)
}

/// The CONGEST round count MetricBall uses for `s` phases: three rounds
/// per ball-growing phase (bid / deny / resolve) plus the three-round
/// coverage tail (demand / open / connect).
pub fn metricball_rounds(phases: u32) -> u32 {
    3 * phases + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, PowerLaw};

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        // H_100 ~ ln(100) + 0.577.
        assert!((harmonic(100) - (100.0f64.ln() + 0.5772)).abs() < 0.01);
    }

    #[test]
    fn paper_bound_decreases_in_k() {
        let bounds: Vec<f64> =
            [1u32, 4, 16, 64, 256].iter().map(|&k| paper_bound(k, 50, 400, 1e4)).collect();
        for w in bounds.windows(2) {
            assert!(w[1] < w[0], "paper bound not decreasing: {bounds:?}");
        }
    }

    #[test]
    fn paper_bound_increases_in_rho() {
        let a = paper_bound(9, 50, 400, 10.0);
        let b = paper_bound(9, 50, 400, 1e6);
        assert!(b > a);
    }

    #[test]
    fn paydual_bound_decreases_in_phases() {
        let inst = PowerLaw::new(10, 40, 1e5).unwrap().generate(1).unwrap();
        let b1 = paydual_bound(&inst, 1);
        let b4 = paydual_bound(&inst, 4);
        let b16 = paydual_bound(&inst, 16);
        assert!(b1 > b4 && b4 > b16);
    }

    #[test]
    fn round_accounting() {
        assert_eq!(paydual_rounds(1), 8);
        assert_eq!(paydual_rounds(6), 23);
        assert_eq!(k_of_phases(6), 23);
    }
}
