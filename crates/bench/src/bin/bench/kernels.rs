//! `bench kernels`: the SoA scan kernels (BENCH_7.json).
//!
//! Times every chunked kernel in `distfl_instance::kernels` against its
//! retained scalar reference twin on lanes shaped like the `capb`
//! OR-Library row (100 facilities x 1000 clients, dense): client rows of
//! 100 costs, facility rows of 1000. Each comparison first asserts the
//! outputs are bitwise identical, so a speedup reported here is a speedup
//! on the *same* answer. A second section re-times the three solver fast
//! paths on the `capb_shaped_100x1000` instance and reports the speedup
//! against the committed BENCH_2.json row — the before/after evidence for
//! the SoA + kernel rework.
//!
//! `--smoke` skips the timing and records no document: it only runs the
//! bitwise-equivalence checks on awkward lane shapes (empty, 1..=9, chunk
//! boundaries, pricing blocks with 1..=8 live columns) and fails on any
//! mismatch — the cheap CI gate.

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::{kernels, Instance};
use distfl_obs::{Json, JsonWriter};

use crate::solvers::LS_MOVES;
use crate::{best_ms, snapshot, Mode, Report};

/// One kernel comparison: nanoseconds per call over `lanes`-many rows.
struct KernelTiming {
    name: &'static str,
    fast_ns: f64,
    reference_ns: f64,
}

impl KernelTiming {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.fast_ns
    }
}

/// The benchmark's lane set: the capb-shaped instance's client rows
/// (length 100, id-sorted) and its facility rows re-sorted by
/// `(cost, client)` the way the greedy star scan consumes them.
struct Lanes {
    client_rows: Vec<Vec<f64>>,
    facility_rows_sorted: Vec<Vec<f64>>,
}

fn lanes(inst: &Instance) -> Lanes {
    let client_rows: Vec<Vec<f64>> =
        inst.clients().map(|j| inst.client_links(j).costs.to_vec()).collect();
    let facility_rows_sorted: Vec<Vec<f64>> = inst
        .facilities()
        .map(|i| {
            let mut row = inst.facility_links(i).costs.to_vec();
            row.sort_by(f64::total_cmp);
            row
        })
        .collect();
    Lanes { client_rows, facility_rows_sorted }
}

fn bench_kernels(l: &Lanes, reps: usize) -> Vec<KernelTiming> {
    let mut out = Vec::new();
    let per_call = |total_ms: f64, calls: usize| total_ms * 1e6 / calls as f64;

    let calls = l.facility_rows_sorted.len();

    // fused_ratio_accumulate over sorted facility rows (the greedy star
    // scan). The residual models an unpaid opening cost a few percent of
    // the row total, which parks the best prefix mid-row — the shape the
    // greedy heap actually re-evaluates. (Residual 0 degenerates: the
    // argmin collapses to the first link and nothing past chunk one
    // matters.)
    let residuals: Vec<f64> =
        l.facility_rows_sorted.iter().map(|r| r.iter().sum::<f64>() * 0.05).collect();
    for (row, &res) in l.facility_rows_sorted.iter().zip(&residuals) {
        for r in [0.0, res] {
            let fast = kernels::fused_ratio_accumulate(row, r);
            let slow = kernels::fused_ratio_accumulate_reference(row, r);
            assert_eq!((fast.0.to_bits(), fast.1), (slow.0.to_bits(), slow.1));
        }
    }
    out.push(KernelTiming {
        name: "fused_ratio_accumulate",
        fast_ns: per_call(
            best_ms(reps, || {
                l.facility_rows_sorted
                    .iter()
                    .zip(&residuals)
                    .map(|(r, &res)| kernels::fused_ratio_accumulate(r, res).1)
                    .sum::<usize>()
            }),
            calls,
        ),
        reference_ns: per_call(
            best_ms(reps, || {
                l.facility_rows_sorted
                    .iter()
                    .zip(&residuals)
                    .map(|(r, &res)| kernels::fused_ratio_accumulate_reference(r, res).1)
                    .sum::<usize>()
            }),
            calls,
        ),
    });

    // retain_unmarked over facility rows with every third client served
    // (the greedy in-place star compaction). The fast path re-copies the
    // pristine lanes each call — that copy is charged to it.
    let n = l.client_rows.len();
    let marked: Vec<bool> = (0..n).map(|j| j % 3 == 0).collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    let row0 = &l.facility_rows_sorted[0];
    let (ref_ids, ref_costs) = kernels::retain_unmarked_reference(&ids, row0, &marked);
    let mut ids_buf = ids.clone();
    let mut costs_buf = row0.clone();
    let live = kernels::retain_unmarked(&mut ids_buf, &mut costs_buf, &marked);
    assert_eq!(&ids_buf[..live], &ref_ids[..]);
    assert_eq!(&costs_buf[..live], &ref_costs[..]);
    out.push(KernelTiming {
        name: "retain_unmarked",
        fast_ns: per_call(
            best_ms(reps, || {
                ids_buf.copy_from_slice(&ids);
                costs_buf.copy_from_slice(row0);
                kernels::retain_unmarked(&mut ids_buf, &mut costs_buf, &marked)
            }),
            1,
        ),
        reference_ns: per_call(
            best_ms(reps, || kernels::retain_unmarked_reference(&ids, row0, &marked)),
            1,
        ),
    });

    // assign_sum_swap over n-length cache lanes and one n x 8 block (the
    // local-search pricing pass for eight closed facilities). best/second
    // from each client's two cheapest links; the block holds the link
    // costs of facilities 0..8, with every fourth client unlinked (+inf).
    let best: Vec<f64> = l.client_rows.iter().map(|r| kernels::min_argmin(r).unwrap().1).collect();
    let second: Vec<f64> = l
        .client_rows
        .iter()
        .zip(&best)
        .map(|(r, &b)| {
            r.iter().copied().filter(|&c| c > b).fold(f64::INFINITY, f64::min).min(b + 1.0)
        })
        .collect();
    let fac: Vec<u32> = (0..n as u32).map(|j| j % 100).collect();
    let block: Vec<f64> = l
        .client_rows
        .iter()
        .enumerate()
        .flat_map(|(j, r)| {
            r[..kernels::SWAP_LANES]
                .iter()
                .map(move |&c| if j % 4 == 0 { f64::INFINITY } else { c })
        })
        .collect();
    assert_eq!(
        kernels::assign_sum_swap(&best, &fac, &second, 7, &block).map(f64::to_bits),
        kernels::assign_sum_swap_reference(&best, &fac, &second, 7, &block).map(f64::to_bits)
    );
    out.push(KernelTiming {
        name: "assign_sum_swap",
        fast_ns: per_call(
            best_ms(reps, || kernels::assign_sum_swap(&best, &fac, &second, 7, &block)),
            1,
        ),
        reference_ns: per_call(
            best_ms(reps, || kernels::assign_sum_swap_reference(&best, &fac, &second, 7, &block)),
            1,
        ),
    });

    out
}

/// The bitwise-equivalence smoke pass over awkward lane shapes: empty,
/// every length 1..=9 (chunk remainders), one chunk-boundary length per
/// chunked width, all-equal ties, subnormal and huge values, and for
/// the pricing kernel partial blocks with 1..=7 live columns, `+inf`
/// columns and a drop id that matches no client.
fn smoke() -> bool {
    let mut ok = true;
    let mut check = |name: &str, cond: bool| {
        if !cond {
            eprintln!("smoke FAILED: {name}");
            ok = false;
        }
    };
    let shapes: Vec<Vec<f64>> = {
        let mut v: Vec<Vec<f64>> = Vec::new();
        for len in 0..=9usize {
            v.push((0..len).map(|k| ((k * 7919) % 100) as f64).collect());
        }
        for len in [8usize, 16, 32, 33] {
            v.push((0..len).map(|k| ((k * 104729) % 1000) as f64 / 8.0).collect());
        }
        v.push(vec![2.5; 17]); // all-equal: ties must break at index 0
        v.push(vec![5e-324; 9]);
        v.push(vec![1e300, 1e300, 5e-324, 0.0, f64::INFINITY, 1.0, 1.0]);
        v
    };
    for lane in &shapes {
        let mut sorted = lane.clone();
        sorted.sort_by(f64::total_cmp);
        for residual in [0.0, 3.75] {
            let fast = kernels::fused_ratio_accumulate(&sorted, residual);
            let slow = kernels::fused_ratio_accumulate_reference(&sorted, residual);
            check(
                "fused_ratio_accumulate",
                (fast.0.to_bits(), fast.1) == (slow.0.to_bits(), slow.1),
            );
        }
        let ids: Vec<u32> = (0..lane.len() as u32).collect();
        let marked: Vec<bool> = (0..lane.len()).map(|k| k % 2 == 0).collect();
        let (ref_ids, ref_costs) = kernels::retain_unmarked_reference(&ids, lane, &marked);
        let mut ids_buf = ids.clone();
        let mut costs_buf = lane.clone();
        let live = kernels::retain_unmarked(&mut ids_buf, &mut costs_buf, &marked);
        check(
            "retain_unmarked",
            ids_buf[..live] == ref_ids[..] && costs_buf[..live] == ref_costs[..],
        );
        // A block whose first `live` columns hold link costs (every
        // third link missing) and whose other columns are +inf, priced
        // with drops 0..3 and with drop 3, which matches no client.
        let fac: Vec<u32> = (0..lane.len() as u32).map(|k| k % 3).collect();
        let second: Vec<f64> = lane.iter().map(|c| c + 1.0).collect();
        for live in 1..=kernels::SWAP_LANES {
            let block: Vec<f64> = (0..lane.len() * kernels::SWAP_LANES)
                .map(|k| {
                    let (j, l) = (k / kernels::SWAP_LANES, k % kernels::SWAP_LANES);
                    if l >= live || (j + l) % 3 == 0 {
                        f64::INFINITY
                    } else {
                        lane[(j + l) % lane.len()] * 0.75
                    }
                })
                .collect();
            for drop in 0..=3u32 {
                check(
                    "assign_sum_swap",
                    kernels::assign_sum_swap(lane, &fac, &second, drop, &block).map(f64::to_bits)
                        == kernels::assign_sum_swap_reference(lane, &fac, &second, drop, &block)
                            .map(f64::to_bits),
                );
            }
        }
    }
    ok
}

pub(crate) fn run(mode: Mode) -> Report {
    if mode == Mode::Smoke {
        let passed = smoke();
        if passed {
            eprintln!("bench kernels smoke: all kernels bitwise-equal to references");
        }
        return Report { document: None, passed };
    }

    // The solver rows compare against the committed BENCH_2.json row of
    // the same instance (the pre-SoA fast paths).
    const INSTANCE: &str = "capb_shaped_100x1000";
    let bench2 = snapshot("BENCH_2.json");
    let bench2_row = bench2.as_ref().and_then(|s| {
        let rows = s.get("results")?.as_array()?;
        rows.iter().find(|r| r.get("instance").and_then(Json::as_str) == Some(INSTANCE))
    });
    let bench2_fast_ms =
        |solver: &str| -> Option<f64> { bench2_row?.get(solver)?.get("fast_ms")?.as_f64() };

    // The capb OR-Library shape: the largest row of the BENCH_2 baseline.
    let inst = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    let l = lanes(&inst);
    let reps = 5usize;

    let mut w = JsonWriter::object();
    w.key("bench").string("soa_kernels");
    w.key("instance").string(INSTANCE);
    w.key("baseline").string(
        "scalar reference twins (kernels) and the committed BENCH_2.json fast paths (solvers, \
         pre-SoA AoS layout)",
    );
    w.key("kernels").begin_array();
    for k in &bench_kernels(&l, reps) {
        eprintln!(
            "{:<24} fast {:>9.1} ns  reference {:>9.1} ns  {:>6.2}x",
            k.name,
            k.fast_ns,
            k.reference_ns,
            k.speedup()
        );
        w.begin_object();
        w.key("kernel").string(k.name);
        w.key("fast_ns").number(k.fast_ns);
        w.key("reference_ns").number(k.reference_ns);
        w.key("speedup").number(k.speedup());
        w.end_object();
    }
    w.end_array();

    let (start, _) = greedy::solve(&inst);
    let solver_rows = [
        ("greedy", best_ms(reps, || greedy::solve_detailed(&inst))),
        ("local_search", best_ms(reps, || localsearch::optimize(&inst, &start, LS_MOVES))),
        ("jv_dual_ascent", best_ms(reps, || jv::dual_ascent(&inst))),
    ];
    w.key("solvers").begin_array();
    for (name, ms) in solver_rows {
        let before = bench2_fast_ms(name);
        let vs = before.map(|b| b / ms);
        eprintln!(
            "{name:<24} now {ms:>8.3} ms  BENCH_2 {}  {}",
            before.map_or("n/a".into(), |b| format!("{b:>8.3} ms")),
            vs.map_or("n/a".into(), |v| format!("{v:>6.2}x")),
        );
        w.begin_object();
        w.key("solver").string(name);
        w.key("fast_ms").number(ms);
        // `number` renders a missing baseline (NaN) as null.
        w.key("bench2_fast_ms").number(before.unwrap_or(f64::NAN));
        w.key("speedup_vs_bench2").number(vs.unwrap_or(f64::NAN));
        w.end_object();
    }
    w.end_array();
    Report { document: Some(w.finish()), passed: true }
}
