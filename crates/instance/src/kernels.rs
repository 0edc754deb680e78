//! Scan primitives over the SoA cost lanes.
//!
//! The CSR adjacency stores costs and ids in separate contiguous lanes
//! (see [`crate::LinkSlice`]); [`min_argmin`] is the shared inner loop the
//! solver hot paths run over a cost lane, a plain scalar scan. (The greedy
//! star scan and local search's candidate pricing stop or shortlist
//! instead of scanning everything, so they live with their solvers in
//! `distfl-core`.)
//!
//! # Input contract
//!
//! Cost lanes come from validated [`crate::Cost`] values, so kernels may
//! assume inputs are **NaN-free**, **non-negative** and contain **no
//! negative zero** ([`crate::Cost::new`] normalizes `-0.0`). Under that
//! contract `<` and `total_cmp` induce the same order, so the first
//! minimum [`min_argmin`] finds on an id-sorted row is the
//! `(cost, id)`-lexicographic minimum. `+inf` is allowed (it is how
//! callers encode "no link"); subnormals and huge magnitudes are ordinary
//! values.
//!
//! # NaN semantics (outside the contract)
//!
//! NaN-bearing lanes never occur through the validated constructors, but
//! the behavior on them is pinned by a property test so a refactor cannot
//! change it silently: [`min_argmin`] is a plain strict-`<` scan, so a
//! leading NaN is an unbeatable incumbent, and any later NaN is invisible
//! to it.

/// First minimum of a cost lane: `(index, value)`, `None` when empty.
///
/// Ties break to the **lowest index** — matching a reference scan with a
/// strict `<` update, and hence (because CSR rows are sorted by id) the
/// "lowest id wins" rule of [`crate::Instance::cheapest_link`].
#[inline]
pub fn min_argmin(costs: &[f64]) -> Option<(usize, f64)> {
    let (&first, rest) = costs.split_first()?;
    let mut best = first;
    let mut best_at = 0usize;
    for (k, &c) in rest.iter().enumerate() {
        if c < best {
            best = c;
            best_at = k + 1;
        }
    }
    Some((best_at, best))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn min_argmin_first_index_tie_break() {
        // The minimum appears three times; the first occurrence wins at
        // every offset.
        for pad in 0..10 {
            let mut costs = vec![5.0; pad];
            costs.extend([2.0, 7.0, 2.0, 9.0, 2.0]);
            assert_eq!(min_argmin(&costs), Some((pad, 2.0)), "pad {pad}");
        }
        let all_equal = vec![3.25; 17];
        assert_eq!(min_argmin(&all_equal), Some((0, 3.25)));
    }

    #[test]
    fn min_argmin_handles_infinities_and_extremes() {
        assert_eq!(min_argmin(&[]), None);
        let all_inf = vec![f64::INFINITY; 11];
        assert_eq!(min_argmin(&all_inf), Some((0, f64::INFINITY)));
        let mixed = [f64::INFINITY, 1e308, f64::MIN_POSITIVE, 5e-324, 0.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(min_argmin(&mixed), Some((4, 0.0)));
    }

    /// NaN-aware model of the [`min_argmin`] scan: a NaN candidate never
    /// wins a strict `<`, so the result is the first-occurrence argmin
    /// over the non-NaN entries — `None` when there are none.
    fn nan_filtered_min(costs: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, &c) in costs.iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((k, c));
            }
        }
        best
    }

    /// A lane mixing ordinary non-negative costs with NaNs and +inf
    /// (tags 0 and 1 of a six-way draw, so about a third of the entries
    /// are non-finite).
    fn nan_lane() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u32..6, 0u32..4000), 1..48).prop_map(|items| {
            items
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::from(v) * 0.375,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn min_argmin_nan_semantics(costs in nan_lane()) {
            let got = min_argmin(&costs).unwrap();
            if costs[0].is_nan() {
                // A leading NaN is the unbeatable incumbent.
                prop_assert_eq!(got.0, 0);
                prop_assert!(got.1.is_nan());
            } else {
                // Otherwise NaNs are invisible to the scan.
                let model = nan_filtered_min(&costs).unwrap();
                prop_assert_eq!(got.0, model.0);
                prop_assert_eq!(got.1.to_bits(), model.1.to_bits());
            }
        }
    }
}
