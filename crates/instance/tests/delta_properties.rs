//! Property tests for [`Instance::apply_delta`]: a mutated instance must be
//! *indistinguishable* from a from-scratch build of the post-state — same
//! CSR lanes, same precomputes, equal under `PartialEq` — across random
//! schedules of add/remove/reprice batches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId, Instance, InstanceBuilder};

/// A shadow of the instance the tests mutate independently: per-client
/// `(facility, cost)` rows plus opening costs, rebuilt into an [`Instance`]
/// through the ordinary builder for comparison.
#[derive(Clone)]
struct Model {
    opening: Vec<f64>,
    rows: Vec<Vec<(u32, f64)>>,
}

impl Model {
    fn of(instance: &Instance) -> Model {
        Model {
            opening: instance.facilities().map(|i| instance.opening_cost(i).value()).collect(),
            rows: instance.clients().map(|j| instance.client_links(j).iter().collect()).collect(),
        }
    }

    fn build(&self) -> Instance {
        let mut b = InstanceBuilder::new();
        let fids: Vec<FacilityId> =
            self.opening.iter().map(|&f| b.add_facility(Cost::new(f).unwrap())).collect();
        for row in &self.rows {
            let c = b.add_client();
            for &(i, cost) in row {
                b.link(c, fids[i as usize], Cost::new(cost).unwrap()).unwrap();
            }
        }
        b.build().unwrap()
    }
}

/// Draws a random batch valid for the model's current shape and applies it
/// to the model; returns the batch. Always leaves at least one client and
/// at least one positive coefficient (openings are drawn positive by the
/// generators, so only degenerate hand-built cases could trip that).
fn random_batch(model: &mut Model, rng: &mut StdRng) -> DeltaBatch {
    let n = model.rows.len();
    let m = model.opening.len();
    let mut batch = DeltaBatch::new();

    // Removals: a few distinct clients, never all of them.
    let max_remove = (n - 1).min(3);
    let num_remove = if max_remove == 0 { 0 } else { rng.gen_range(0..=max_remove) };
    let mut removed: Vec<u32> = Vec::new();
    while removed.len() < num_remove {
        let j = rng.gen_range(0..n as u32);
        if !removed.contains(&j) {
            removed.push(j);
        }
    }
    for &j in &removed {
        batch.remove_client(ClientId::new(j));
    }

    // Reprices: existing links of surviving clients, distinct pairs.
    let mut repriced: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rng.gen_range(0..=4usize) {
        let j = rng.gen_range(0..n as u32);
        if removed.contains(&j) {
            continue;
        }
        let row = &model.rows[j as usize];
        let (i, _) = row[rng.gen_range(0..row.len())];
        if repriced.contains(&(j, i)) {
            continue;
        }
        repriced.push((j, i));
        let c = rng.gen_range(0.0..100.0f64);
        batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).unwrap());
        model.rows[j as usize].iter_mut().find(|(f, _)| *f == i).unwrap().1 = c;
    }

    // Adds: fresh clients with 1..=m random links each.
    for _ in 0..rng.gen_range(0..=3usize) {
        let p = batch.add_client();
        let deg = rng.gen_range(1..=m);
        let mut fids: Vec<u32> = (0..m as u32).collect();
        for k in 0..deg {
            let swap = rng.gen_range(k..m);
            fids.swap(k, swap);
        }
        let mut row: Vec<(u32, f64)> =
            fids[..deg].iter().map(|&i| (i, rng.gen_range(0.0..100.0f64))).collect();
        row.sort_by_key(|&(i, _)| i);
        for &(i, c) in &row {
            batch.link(p, FacilityId::new(i), Cost::new(c).unwrap()).unwrap();
        }
        model.rows.push(row);
    }

    // Apply the removals to the model last (ids above refer to pre-batch
    // space; added rows were appended after survivors, matching the
    // compaction order because removal preserves relative order).
    let mut keep: Vec<Vec<(u32, f64)>> = Vec::new();
    for (j, row) in model.rows.iter().enumerate() {
        if j >= n || !removed.contains(&(j as u32)) {
            keep.push(row.clone());
        }
    }
    // Reorder: survivors of the original n first, then the added tail —
    // `keep` already has that shape since added rows sit past index n.
    model.rows = keep;
    batch
}

fn any_instance() -> impl Strategy<Value = Instance> {
    (0u8..3, 1usize..8, 1usize..20, 0u64..1000).prop_map(|(family, m, n, seed)| match family {
        0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
        1 => {
            let clusters = m % 3 + 1;
            Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
        }
        _ => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn delta_schedules_match_from_scratch_builds(
        base in any_instance(),
        seed in any::<u64>(),
        batches in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = base.clone();
        let mut model = Model::of(&base);
        for _ in 0..batches {
            let batch = random_batch(&mut model, &mut rng);
            let n_before = inst.num_clients();
            let report = inst.apply_delta(&batch).unwrap();
            // The mutated instance is structurally identical to a rebuild.
            prop_assert_eq!(&inst, &model.build());
            // Report sanity: the counts account for the new client count.
            // Survivor order and the added tail are covered by the
            // equality with the rebuild above.
            prop_assert_eq!(n_before - report.removed.len() + report.added, inst.num_clients());
        }
    }

    #[test]
    fn reprice_only_batches_leave_the_shape_untouched(
        base in any_instance(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = base.clone();
        let mut batch = DeltaBatch::new();
        let n = inst.num_clients();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for _ in 0..5usize {
            let j = rng.gen_range(0..n as u32);
            let row = inst.client_links(ClientId::new(j));
            let i = row.ids[rng.gen_range(0..row.len())];
            if seen.contains(&(j, i)) {
                continue;
            }
            seen.push((j, i));
            batch.reprice(
                ClientId::new(j),
                FacilityId::new(i),
                Cost::new(rng.gen_range(0.1..50.0f64)).unwrap(),
            );
        }
        let report = inst.apply_delta(&batch).unwrap();
        prop_assert!(!report.is_structural());
        prop_assert_eq!(inst.num_clients(), base.num_clients());
        prop_assert_eq!(inst.num_links(), base.num_links());
        // Offsets (shape) are untouched; only costs moved.
        for j in inst.clients() {
            prop_assert_eq!(inst.client_links(j).ids, base.client_links(j).ids);
        }
    }
}
