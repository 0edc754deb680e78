//! **E5 — the rounding stage (paper "Figure 2").**
//!
//! Claim: distributed randomized rounding turns a feasible fractional
//! solution into an integral one at an `O(log(m+n))` cost factor, serving
//! all clients w.h.p. within `Θ(log)` trials; a deterministic fallback
//! guarantees feasibility regardless.
//!
//! Sweep the trial budget `T` on a fixed fractional input and report the
//! fallback fraction, the integral/fractional cost ratio, and the gap to
//! the sequential rounding oracle.

use distfl_core::fraclp::spread_fractional;
use distfl_core::round::{distributed_round, rounding_rounds, DistRoundParams};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_lp::rounding::{round as seq_round, RoundingConfig};

use crate::table::num;
use crate::{mean, Table};

/// Runs E5.
pub fn run(quick: bool) -> Vec<Table> {
    let trials_grid: &[u32] = if quick { &[0, 2, 6] } else { &[0, 1, 2, 3, 4, 6, 8, 12] };
    let seeds: u64 = if quick { 3 } else { 8 };
    let (m, n) = if quick { (10, 60) } else { (20, 150) };

    let inst = UniformRandom::new(m, n).unwrap().generate(500).unwrap();
    let frac = spread_fractional(&inst, 4);
    frac.check_feasible(&inst, 1e-9).expect("spread fractional is feasible");
    let lp_objective = frac.objective(&inst);

    let mut table = Table::new(
        "e5_rounding",
        "E5: rounding-stage trial budget vs success and cost",
        &["trials", "rounds", "fallback_frac", "cost_over_lp", "seq_cost_over_lp", "dist_over_seq"],
    );
    // Flat (trials, seed) fan-out: each task returns its (fallback,
    // dist_cost, seq_cost) triple; rows fold the triples back per trial
    // budget in index order.
    let pool = crate::sweep_pool();
    let cells: Vec<(u32, u64)> =
        trials_grid.iter().flat_map(|&trials| (0..seeds).map(move |s| (trials, s))).collect();
    let triples: Vec<(f64, f64, f64)> = pool.map_indexed(cells.len(), |c| {
        let _cell = distfl_obs::span_arg("exp", "e5.cell", c as u64);
        let (trials, s) = cells[c];
        let params = DistRoundParams { boost: 2.0, trials, fault: None };
        let out = distributed_round(&inst, &frac, params, s).expect("rounding run");
        out.solution.check_feasible(&inst).expect("rounded solution feasible");
        let seq = seq_round(&inst, &frac, RoundingConfig { boost: 2.0, trials }, s);
        (
            out.fallback_clients as f64 / n as f64,
            out.solution.cost(&inst).value(),
            seq.solution.cost(&inst).value(),
        )
    });
    for (t, &trials) in trials_grid.iter().enumerate() {
        let per_seed = &triples[t * seeds as usize..(t + 1) * seeds as usize];
        let fallback: Vec<f64> = per_seed.iter().map(|x| x.0).collect();
        let dist_cost: Vec<f64> = per_seed.iter().map(|x| x.1).collect();
        let seq_cost: Vec<f64> = per_seed.iter().map(|x| x.2).collect();
        table.push(vec![
            trials.to_string(),
            rounding_rounds(trials).to_string(),
            num(mean(&fallback), 3),
            num(mean(&dist_cost) / lp_objective, 3),
            num(mean(&seq_cost) / lp_objective, 3),
            num(mean(&dist_cost) / mean(&seq_cost), 3),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_fraction_shrinks_with_trials_and_oracle_agrees() {
        let tables = run(true);
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> =
            csv.lines().skip(1).map(|l| l.split(',').map(str::to_owned).collect()).collect();
        let fallback: Vec<f64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(fallback[0], 1.0, "zero trials means all fallback");
        assert!(
            fallback.last().unwrap() < &0.2,
            "enough trials should serve most clients: {fallback:?}"
        );
        // Distributed and sequential rounding live in the same cost regime.
        let gap: Vec<f64> = rows.iter().map(|r| r[5].parse().unwrap()).collect();
        for g in gap {
            assert!((0.4..2.5).contains(&g), "dist/seq gap {g} out of family");
        }
    }
}
