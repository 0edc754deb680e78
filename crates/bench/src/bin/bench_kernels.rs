//! Machine-readable micro-benchmark for the SoA scan kernels.
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
//! Emits a single JSON document (default `BENCH_7.json`). `--smoke` skips
//! the timing and only runs the bitwise-equivalence checks on awkward lane
//! shapes (empty, 1..=9, chunk boundaries), exiting non-zero on any
//! mismatch — the cheap CI gate.
//!
//! Usage: `bench_kernels [--smoke] [--out PATH]`

use std::hint::black_box;
use std::time::Instant;

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::{kernels, Instance};

/// Move cap matching `bench_solvers`, so the local-search row is
/// comparable with the BENCH_2.json baseline.
const LS_MOVES: u32 = 4;

/// Best-of-`reps` wall time for `f`, in milliseconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

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
            time_best(reps, || {
                l.facility_rows_sorted
                    .iter()
                    .zip(&residuals)
                    .map(|(r, &res)| kernels::fused_ratio_accumulate(r, res).1)
                    .sum::<usize>()
            }),
            calls,
        ),
        reference_ns: per_call(
            time_best(reps, || {
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
            time_best(reps, || {
                ids_buf.copy_from_slice(&ids);
                costs_buf.copy_from_slice(row0);
                kernels::retain_unmarked(&mut ids_buf, &mut costs_buf, &marked)
            }),
            1,
        ),
        reference_ns: per_call(
            time_best(reps, || kernels::retain_unmarked_reference(&ids, row0, &marked)),
            1,
        ),
    });

    // assign_sum_swap over n-length cache lanes (the local-search swap
    // pricing). best/second from the instance's two cheapest links; the
    // add column scatters one facility row over +inf.
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
    let add_min: Vec<f64> =
        (0..n).map(|j| if j % 4 == 0 { f64::INFINITY } else { best[j] * 0.5 }).collect();
    assert_eq!(
        kernels::assign_sum_swap(&best, &fac, &second, 7, &add_min).to_bits(),
        kernels::assign_sum_swap_reference(&best, &fac, &second, 7, &add_min).to_bits()
    );
    out.push(KernelTiming {
        name: "assign_sum_swap",
        fast_ns: per_call(
            time_best(reps, || kernels::assign_sum_swap(&best, &fac, &second, 7, &add_min)),
            1,
        ),
        reference_ns: per_call(
            time_best(reps, || {
                kernels::assign_sum_swap_reference(&best, &fac, &second, 7, &add_min)
            }),
            1,
        ),
    });

    out
}

/// The bitwise-equivalence smoke pass over awkward lane shapes: empty,
/// every length 1..=9 (chunk remainders), one chunk-boundary length per
/// chunked width, all-equal ties, subnormal and huge values.
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
        let fac: Vec<u32> = (0..lane.len() as u32).map(|k| k % 3).collect();
        let second: Vec<f64> = lane.iter().map(|c| c + 1.0).collect();
        let add_min: Vec<f64> = lane
            .iter()
            .enumerate()
            .map(|(k, &c)| if k % 2 == 0 { f64::INFINITY } else { c })
            .collect();
        check(
            "assign_sum_swap",
            kernels::assign_sum_swap(lane, &fac, &second, 1, &add_min).to_bits()
                == kernels::assign_sum_swap_reference(lane, &fac, &second, 1, &add_min).to_bits(),
        );
    }
    ok
}

/// Reads `fast_ms` of one solver on one instance row out of a
/// bench_solvers JSON document by flat scan (the document is written by
/// in-tree code, so the shape is reliable).
fn read_bench2_fast_ms(path: &str, instance: &str, solver: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let row = text.find(&format!("\"instance\": \"{instance}\""))?;
    let sect = text[row..].find(&format!("\"{solver}\":"))? + row;
    let key = "\"fast_ms\": ";
    let at = text[sect..].find(key)? + sect + key.len();
    let rest = &text[at..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut smoke_mode = false;
    let mut out_path = "BENCH_7.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!("usage: bench_kernels [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    if smoke_mode {
        if smoke() {
            eprintln!("bench_kernels smoke: all kernels bitwise-equal to references");
        } else {
            std::process::exit(1);
        }
        return;
    }

    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    // The capb OR-Library shape: the largest row of the BENCH_2 baseline.
    let inst = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    let l = lanes(&inst);
    let reps = 5usize;

    let kernel_rows = bench_kernels(&l, reps);
    let mut entries = Vec::new();
    for k in &kernel_rows {
        eprintln!(
            "{:<24} fast {:>9.1} ns  reference {:>9.1} ns  {:>6.2}x",
            k.name,
            k.fast_ns,
            k.reference_ns,
            k.speedup()
        );
        entries.push(format!(
            "    {{\"kernel\": \"{}\", \"fast_ns\": {:.1}, \"reference_ns\": {:.1}, \
             \"speedup\": {:.3}}}",
            k.name,
            k.fast_ns,
            k.reference_ns,
            k.speedup()
        ));
    }

    // Solver fast paths on the same instance, against the committed
    // BENCH_2.json row (the pre-SoA fast paths).
    let (start, _) = greedy::solve(&inst);
    let solver_rows = [
        ("greedy", time_best(reps, || greedy::solve_detailed(&inst))),
        ("local_search", time_best(reps, || localsearch::optimize(&inst, &start, LS_MOVES))),
        ("jv_dual_ascent", time_best(reps, || jv::dual_ascent(&inst))),
    ];
    let mut solver_entries = Vec::new();
    for (name, ms) in solver_rows {
        let before = read_bench2_fast_ms("BENCH_2.json", "capb_shaped_100x1000", name);
        let vs = before.map(|b| b / ms);
        eprintln!(
            "{name:<24} now {ms:>8.3} ms  BENCH_2 {}  {}",
            before.map_or("n/a".into(), |b| format!("{b:>8.3} ms")),
            vs.map_or("n/a".into(), |v| format!("{v:>6.2}x")),
        );
        solver_entries.push(format!(
            "    {{\"solver\": \"{name}\", \"fast_ms\": {ms:.3}, \
             \"bench2_fast_ms\": {}, \"speedup_vs_bench2\": {}}}",
            before.map_or("null".into(), |b| format!("{b:.3}")),
            vs.map_or("null".into(), |v| format!("{v:.3}")),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"soa_kernels\",\n  \
         \"instance\": \"capb_shaped_100x1000\",\n  \
         \"baseline\": \"scalar reference twins (kernels) and the committed \
         BENCH_2.json fast paths (solvers, pre-SoA AoS layout)\",\n  \
         \"kernels\": [\n{}\n  ],\n  \"solvers\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        solver_entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
