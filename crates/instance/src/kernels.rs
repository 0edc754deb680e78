//! Scan primitives over the SoA cost lanes.
//!
//! The CSR adjacency stores costs and ids in separate contiguous lanes
//! (see [`crate::LinkSlice`]); these kernels are the shared inner loops
//! the solver hot paths run over those lanes. [`min_argmin`] is a plain
//! scalar scan. The other three are written in the explicitly chunked
//! 4/8-lane slice style that autovectorizes on stable rust — fixed-size
//! chunk bodies with branchless lane math — and each ships with a
//! retained naive `*_reference` twin; they stay chunked because each
//! measures faster than its twin (`bench kernels`). [`assign_sum_swap`]
//! runs its eight lanes across candidates rather than along the lane: it
//! prices eight local-search candidates in one pass. The equivalence is
//! exact, not approximate: for every input the fast kernel returns the
//! bit-identical value (and the identical tie-breaking index) of its
//! reference, which is what lets the solvers built on top keep their
//! bitwise-equality guarantees against *their* references.
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
//! Accumulating sums ([`assign_sum_swap`], the prefix in
//! [`fused_ratio_accumulate`]) are **not** reassociated: floating-point
//! addition is order-sensitive, and the references define the order
//! (ascending index). The chunking there vectorizes the per-lane selects
//! and divides while keeping each additive chain sequential: one prefix
//! chain in [`fused_ratio_accumulate`], one chain per candidate in
//! [`assign_sum_swap`].
//!
//! # NaN semantics (outside the contract)
//!
//! NaN-bearing lanes never occur through the validated constructors, but
//! the behavior on them is pinned by property tests so a refactor cannot
//! change it silently. [`fused_ratio_accumulate`] stays **bit-identical**
//! to its reference even with NaNs: the NaN poisons the sequential prefix
//! chain in both twins, so both behave exactly as if the lane ended just
//! before the first NaN (and the chunk lower-bound rejection can never
//! hide an improvement from a pre-NaN lane). [`min_argmin`] is a plain
//! strict-`<` scan: a leading NaN is an unbeatable incumbent, and any
//! later NaN is invisible to it. [`assign_sum_swap`] is pinned to its
//! twin only inside the contract: its compare-select keeps a NaN `base`
//! where `f64::min` would take the block entry.

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

/// The greedy star scan: over prefixes of `costs` (a facility's unserved
/// link costs, pre-sorted by `(cost, client)`), the best ratio
/// `(residual + prefix_k) / k` and the first `k` attaining it.
///
/// Returns `(f64::INFINITY, 0)` on an empty lane. The prefix sums form
/// the reference's exact sequential chain; the chunking batches the four
/// independent divides and the branchless best-tracking behind it, so
/// the adds stay on the critical path and everything else vectorizes.
#[inline]
pub fn fused_ratio_accumulate(costs: &[f64], residual: f64) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_k = 0usize;
    let mut prefix = 0.0f64;
    let mut k = 0usize;
    let mut chunks = costs.chunks_exact(4);
    for chunk in &mut chunks {
        let c: &[f64; 4] = chunk.try_into().expect("chunks_exact(4)");
        let p0 = prefix + c[0];
        let p1 = p0 + c[1];
        let p2 = p1 + c[2];
        let p3 = p2 + c[3];
        // Whole-chunk rejection on a one-division lower bound: costs are
        // non-negative, so `residual + p0` is the smallest numerator and
        // `k + 4` the largest denominator in the chunk, and rounded
        // division is monotone — `lb` never exceeds any lane's rounded
        // ratio. A chunk with `lb >= best` therefore cannot improve and
        // is dismissed for a quarter of the reference's division work;
        // the ratio curve bottoms out on a short prefix, so almost every
        // chunk takes this path. Improving chunks replay the reference's
        // in-order strict-`<` updates, preserving its first-k tie-break.
        let lb = (residual + p0) / (k + 4) as f64;
        if lb < best {
            let r0 = (residual + p0) / (k + 1) as f64;
            let r1 = (residual + p1) / (k + 2) as f64;
            let r2 = (residual + p2) / (k + 3) as f64;
            let r3 = (residual + p3) / (k + 4) as f64;
            if r0 < best {
                best = r0;
                best_k = k + 1;
            }
            if r1 < best {
                best = r1;
                best_k = k + 2;
            }
            if r2 < best {
                best = r2;
                best_k = k + 3;
            }
            if r3 < best {
                best = r3;
                best_k = k + 4;
            }
        }
        prefix = p3;
        k += 4;
    }
    for &c in chunks.remainder() {
        prefix += c;
        k += 1;
        let r = (residual + prefix) / k as f64;
        if r < best {
            best = r;
            best_k = k;
        }
    }
    (best, best_k)
}

/// Naive scalar twin of [`fused_ratio_accumulate`].
pub fn fused_ratio_accumulate_reference(costs: &[f64], residual: f64) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_k = 0usize;
    let mut prefix = 0.0f64;
    for (k, &c) in costs.iter().enumerate() {
        prefix += c;
        let ratio = (residual + prefix) / (k + 1) as f64;
        if ratio < best {
            best = ratio;
            best_k = k + 1;
        }
    }
    (best, best_k)
}

/// Stable in-place compaction of a paired `(ids, costs)` lane: drops every
/// entry whose id is `marked`, returning the new live length.
///
/// Order is preserved, so a scan over the compacted prefix visits exactly
/// the subsequence an unmarked-filtering scan of the original visits —
/// the property the greedy lazy heap needs to stay bitwise-equal while
/// its per-facility link lists shrink.
///
/// # Panics
///
/// Panics (via slice indexing) if the lanes differ in length or an id is
/// out of range of `marked`.
#[inline]
pub fn retain_unmarked(ids: &mut [u32], costs: &mut [f64], marked: &[bool]) -> usize {
    assert_eq!(ids.len(), costs.len(), "paired lanes must have equal length");
    let mut w = 0usize;
    for r in 0..ids.len() {
        let id = ids[r];
        let c = costs[r];
        // Branchless: always write at the cursor, advance only on keep.
        ids[w] = id;
        costs[w] = c;
        w += usize::from(!marked[id as usize]);
    }
    w
}

/// Naive twin of [`retain_unmarked`] (filters into fresh vectors).
pub fn retain_unmarked_reference(
    ids: &[u32],
    costs: &[f64],
    marked: &[bool],
) -> (Vec<u32>, Vec<f64>) {
    let mut out_ids = Vec::new();
    let mut out_costs = Vec::new();
    for (&id, &c) in ids.iter().zip(costs) {
        if !marked[id as usize] {
            out_ids.push(id);
            out_costs.push(c);
        }
    }
    (out_ids, out_costs)
}

/// Candidates one [`assign_sum_swap`] pass prices: the width of its
/// client-major block.
pub const SWAP_LANES: usize = 8;

/// Local-search pricing of up to [`SWAP_LANES`] candidates in one pass.
///
/// `base(j)` is client `j`'s service cost once facility `drop` closes:
/// `second[j]` where `best_fac[j] == drop`, else `best[j]` (a `drop` that
/// matches no client prices plain adds). `block` is client-major,
/// `SWAP_LANES` entries per client: column `l` holds one closed
/// facility's link costs scattered over `+inf`. Lane `l` of the result is
/// the sum of `min(base(j), block[j][l])` in ascending client order — the
/// chain a one-candidate fold sums — with the eight chains interleaved so
/// the add latency is paid once per client rather than once per
/// candidate. Under the NaN-free input contract the compare-select equals
/// `f64::min` bit for bit, and it lowers to a plain vector `min`.
///
/// # Panics
///
/// Panics if `block` is not `SWAP_LANES` times as long as `best`.
#[inline]
pub fn assign_sum_swap(
    best: &[f64],
    best_fac: &[u32],
    second: &[f64],
    drop: u32,
    block: &[f64],
) -> [f64; SWAP_LANES] {
    assert_eq!(block.len(), best.len() * SWAP_LANES, "one block row per client");
    let mut acc = [0.0f64; SWAP_LANES];
    let rows = block.chunks_exact(SWAP_LANES);
    for (((&b, &f), &s), row) in best.iter().zip(best_fac).zip(second).zip(rows) {
        let base = if f == drop { s } else { b };
        let row: &[f64; SWAP_LANES] = row.try_into().expect("chunks_exact");
        for (acc, &x) in acc.iter_mut().zip(row) {
            *acc += if x < base { x } else { base };
        }
    }
    acc
}

/// Per-lane scalar twin of [`assign_sum_swap`]: one `f64::min` fold per
/// column.
pub fn assign_sum_swap_reference(
    best: &[f64],
    best_fac: &[u32],
    second: &[f64],
    drop: u32,
    block: &[f64],
) -> [f64; SWAP_LANES] {
    std::array::from_fn(|l| {
        (0..best.len()).fold(0.0f64, |acc, j| {
            let base = if best_fac[j] == drop { second[j] } else { best[j] };
            acc + base.min(block[j * SWAP_LANES + l])
        })
    })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Deterministic pseudo-random lane without pulling in a RNG: a
    /// xorshift over bit patterns mapped into a positive range.
    fn lane(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 1e3
            })
            .collect()
    }

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

    #[test]
    fn fused_ratio_accumulate_matches_reference_bitwise() {
        for len in 0..=40 {
            for seed in 1..=5u64 {
                let costs = lane(len, seed * 13 + len as u64);
                for residual in [0.0, 1.0, 123.456, 1e9] {
                    let fast = fused_ratio_accumulate(&costs, residual);
                    let slow = fused_ratio_accumulate_reference(&costs, residual);
                    assert_eq!(fast.0.to_bits(), slow.0.to_bits(), "len {len}");
                    assert_eq!(fast.1, slow.1, "len {len}");
                }
            }
        }
        assert_eq!(fused_ratio_accumulate(&[], 3.0), (f64::INFINITY, 0));
    }

    #[test]
    fn fused_ratio_accumulate_subnormal_and_huge() {
        let costs = [5e-324, 5e-324, 1e308, 5e-324, 1e308, 1e-300, 2.0, 5e-324, 1.0];
        for residual in [0.0, 5e-324, 1e308] {
            let fast = fused_ratio_accumulate(&costs, residual);
            let slow = fused_ratio_accumulate_reference(&costs, residual);
            assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            assert_eq!(fast.1, slow.1);
        }
    }

    #[test]
    fn retain_unmarked_is_stable_and_complete() {
        let mut marked = vec![false; 64];
        for id in [3usize, 7, 8, 21, 40] {
            marked[id] = true;
        }
        for len in 0..=40 {
            let ids: Vec<u32> = (0..len as u32).map(|k| (k * 7) % 64).collect();
            let costs: Vec<f64> = lane(len, 99 + len as u64);
            let (ref_ids, ref_costs) = retain_unmarked_reference(&ids, &costs, &marked);
            let mut fast_ids = ids.clone();
            let mut fast_costs = costs.clone();
            let w = retain_unmarked(&mut fast_ids, &mut fast_costs, &marked);
            assert_eq!(&fast_ids[..w], &ref_ids[..], "len {len}");
            assert_eq!(&fast_costs[..w], &ref_costs[..], "len {len}");
        }
    }

    /// A client-major block of `live` candidate columns (the rest stay
    /// `+inf`, as in a partial tail block); every third link is missing.
    fn block(len: usize, live: usize, seed: u64) -> Vec<f64> {
        let costs = lane(len * SWAP_LANES, seed);
        (0..len * SWAP_LANES)
            .map(|k| if k % SWAP_LANES >= live || k % 3 == 0 { f64::INFINITY } else { costs[k] })
            .collect()
    }

    #[test]
    fn assign_sums_match_reference_bitwise() {
        for len in 0..=40 {
            let best = lane(len, 1 + len as u64);
            let second: Vec<f64> =
                lane(len, 2 + len as u64).iter().zip(&best).map(|(x, b)| b + x).collect();
            let fac: Vec<u32> = (0..len as u32).map(|k| k % 5).collect();
            for live in 1..=SWAP_LANES {
                let block = block(len, live, 3 + len as u64);
                // Drop 5 matches no client: the add pass.
                for drop in 0..=5u32 {
                    let fast = assign_sum_swap(&best, &fac, &second, drop, &block);
                    let slow = assign_sum_swap_reference(&best, &fac, &second, drop, &block);
                    assert_eq!(
                        fast.map(f64::to_bits),
                        slow.map(f64::to_bits),
                        "len {len} live {live} drop {drop}"
                    );
                }
            }
        }
    }

    #[test]
    fn assign_sums_propagate_infinity() {
        let best = vec![f64::INFINITY; 9];
        let fac = vec![0u32; 9];
        let second = vec![f64::INFINITY; 9];
        let block = vec![f64::INFINITY; 9 * SWAP_LANES];
        let sums = assign_sum_swap(&best, &fac, &second, 0, &block);
        assert!(sums.iter().all(|s| s.is_infinite()));
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

        #[test]
        fn fused_ratio_accumulate_bitwise_identical_with_nans(
            costs in nan_lane(),
            residual in (0u32..4000).prop_map(f64::from),
        ) {
            let fast = fused_ratio_accumulate(&costs, residual);
            let slow = fused_ratio_accumulate_reference(&costs, residual);
            prop_assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            prop_assert_eq!(fast.1, slow.1);

            // And the shared semantic both implement: the poisoned
            // prefix makes every post-NaN ratio NaN, which never wins a
            // strict `<` — as if the lane ended just before the NaN.
            let cut = costs.iter().position(|c| c.is_nan()).unwrap_or(costs.len());
            let truncated = fused_ratio_accumulate_reference(&costs[..cut], residual);
            prop_assert_eq!(slow.0.to_bits(), truncated.0.to_bits());
            prop_assert_eq!(slow.1, truncated.1);
        }
    }
}
