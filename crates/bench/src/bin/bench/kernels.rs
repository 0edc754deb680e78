//! `bench kernels`: the SoA scan kernels (BENCH_7.json).
//!
//! Times every chunked kernel in `distfl_instance::kernels` against its
//! retained scalar reference twin on lanes shaped like the `capb`
//! OR-Library row (100 facilities x 1000 clients, dense): client rows of
//! 100 costs, facility rows of 1000. Each comparison first asserts the
//! outputs are bitwise identical, so a speedup reported here is a speedup
//! on the *same* answer. A second section re-times the three solver fast
//! paths on the `capb_shaped_100x1000` instance and reports the speedup
//! against the pre-SoA fast paths as BENCH_2.json first recorded them
//! (pinned in `PRE_SOA_FAST_MS`) — the before/after evidence for the SoA
//! and kernel rework.
//!
//! An ingest section times the number readers on the same instance:
//! `orlib::from_str` against its reference twin `from_str_reference` on
//! the instance's OR-Library text, and `Cursor::number` against
//! `str::parse` over the same cost literals (the shortest `Display` of
//! each cost, 16-17 significant digits). Each pair is checked bitwise
//! equal before it is timed.
//!
//! `--smoke` skips the timing and records no document: it only runs the
//! bitwise-equivalence checks on awkward lane shapes (empty, 1..=9, chunk
//! boundaries, pricing blocks with 1..=8 live columns) and on the number
//! readers' edge literals (ties above 2^53, 19- and 20-digit mantissas,
//! the ends of the exact exponent range, digit runs of 0..=17 bytes at
//! every offset mod 8), and fails on any mismatch — the cheap CI gate.

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::{kernels, orlib, Instance, InstanceError};
use distfl_obs::{Cursor, JsonWriter};

use crate::solvers::LS_MOVES;
use crate::{best_ms, Mode, Report};

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

/// Either OR-Library parser's outcome, in a form that tells every bit of
/// every cost apart (`Debug` round-trips an `f64` and shows the sign of
/// zero).
fn outcome(parsed: Result<Instance, InstanceError>) -> String {
    format!("{parsed:?}")
}

/// The cursor's read of `text` as one number, as bits.
fn cursor_bits(text: &str) -> Option<u64> {
    Cursor::new(text).number().ok().map(f64::to_bits)
}

/// The ingest section: both OR-Library parsers on `inst`'s text (ns per
/// parse), and both number readers over its cost literals (ns per
/// literal): the cursor walking them as one JSON array, `str::parse` on
/// each literal already cut out.
fn bench_ingest(inst: &Instance, reps: usize) -> Vec<KernelTiming> {
    let text = orlib::to_string(inst).expect("the capb-shaped instance is complete");
    assert_eq!(outcome(orlib::from_str(&text)), outcome(orlib::from_str_reference(&text)));
    let literals: Vec<String> = inst
        .clients()
        .flat_map(|j| inst.client_links(j).costs.iter().map(f64::to_string))
        .collect();
    let array = format!("[{}]", literals.join(","));
    let read_array = |each: &mut dyn FnMut(f64)| {
        let mut c = Cursor::new(&array);
        if c.begin_array().unwrap() {
            loop {
                each(c.number().unwrap());
                if !c.next_element().unwrap() {
                    break;
                }
            }
        }
    };
    let mut read = Vec::with_capacity(literals.len());
    read_array(&mut |v| read.push(v.to_bits()));
    let parsed: Vec<u64> = literals.iter().map(|s| s.parse::<f64>().unwrap().to_bits()).collect();
    assert_eq!(read, parsed);
    let per_literal = |total_ms: f64| total_ms * 1e6 / literals.len() as f64;
    vec![
        KernelTiming {
            name: "orlib_from_str",
            fast_ns: best_ms(reps, || orlib::from_str(&text)) * 1e6,
            reference_ns: best_ms(reps, || orlib::from_str_reference(&text)) * 1e6,
        },
        KernelTiming {
            name: "cursor_number",
            fast_ns: per_literal(best_ms(reps, || {
                let mut sum = 0.0;
                read_array(&mut |v| sum += v);
                sum
            })),
            reference_ns: per_literal(best_ms(reps, || {
                literals.iter().map(|s| s.parse::<f64>().unwrap()).sum::<f64>()
            })),
        },
    ]
}

/// Literals at the edges of the exact decimal reader: ties between two
/// doubles above 2^53, 19- and 20-digit mantissas, the ends of its
/// exponent range, and signed zeros.
const EDGE_LITERALS: [&str; 17] = [
    "9007199254740993",
    "9007199254740995",
    "18014398509481985",
    "1234567890123456789",
    "9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "12345678901234567891",
    "1234567890.1234567891",
    "1e22",
    "1e23",
    "1e-22",
    "1e-23",
    "-0",
    "-0.0",
    "1007.3366912665307",
    "0.30000000000000004",
];

/// The number readers' smoke pass: the cursor against `str::parse` on the
/// edge literals and on digit runs of 0..=17 bytes at every offset mod 8
/// followed by `/`, `:`, `.`, `e` or a multi-byte character, and both
/// OR-Library parsers on each such run as a cost and on one payload of
/// every literal and run.
fn smoke_numbers(check: &mut impl FnMut(&str, bool)) {
    let same =
        |text: &str| outcome(orlib::from_str(text)) == outcome(orlib::from_str_reference(text));
    for literal in EDGE_LITERALS {
        check("cursor_number", cursor_bits(literal) == literal.parse().ok().map(f64::to_bits));
    }
    let mut costs: Vec<String> =
        EDGE_LITERALS.iter().map(|l| l.trim_start_matches('-').to_owned()).collect();
    for offset in 0..8 {
        for len in 0..=17 {
            let digits: String = (0..len).map(|k| char::from(b"1234567890"[k % 10])).collect();
            for stop in ["/", ":", ".", "e", "\u{E9}"] {
                let text = format!("{}{digits}{stop}", " ".repeat(offset));
                let mut c = Cursor::new(&text);
                let got = c.number();
                let read = if len > 0 && !matches!(stop, "." | "e") {
                    got.map(f64::to_bits) == Ok(digits.parse::<f64>().unwrap().to_bits())
                        && c.end() == Err(format!("trailing data at byte {}", offset + len))
                } else {
                    got == Err(format!("bad number at byte {offset}"))
                };
                check("cursor_number", read);
                check("orlib_from_str", same(&format!("1 1\n0 1\n0 {text}\n")));
            }
            if len > 0 {
                costs.push(format!("{}{digits}", " ".repeat(offset)));
            }
        }
    }
    let mut payload = format!("1 {}\n0 1\n", costs.len());
    for cost in &costs {
        payload.push_str(&format!("0 {cost}\n"));
    }
    check("orlib_from_str", same(&payload) && orlib::from_str(&payload).is_ok());
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
    smoke_numbers(&mut check);
    ok
}

/// The solver fast paths on `capb_shaped_100x1000` before the SoA lanes,
/// in ms, as BENCH_2.json first recorded them. Pinned here because later
/// recordings of BENCH_2.json time the current fast paths.
const PRE_SOA_FAST_MS: [(&str, f64); 3] =
    [("greedy", 9.329), ("local_search", 25.999), ("jv_dual_ascent", 41.273)];

pub(crate) fn run(mode: Mode) -> Report {
    if mode == Mode::Smoke {
        let passed = smoke();
        if passed {
            eprintln!(
                "bench kernels smoke: all kernels and number readers bitwise-equal to references"
            );
        }
        return Report { document: None, passed };
    }

    const INSTANCE: &str = "capb_shaped_100x1000";

    // The capb OR-Library shape: the largest row of the BENCH_2 baseline.
    let inst = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    let l = lanes(&inst);
    let reps = 5usize;

    let mut w = JsonWriter::object();
    w.key("bench").string("soa_kernels");
    w.key("instance").string(INSTANCE);
    w.key("baseline").string(
        "scalar reference twins (kernels) and the fast paths of the first BENCH_2.json \
         recording (solvers, pre-SoA AoS layout)",
    );
    for (section, name_key, timings) in [
        ("kernels", "kernel", bench_kernels(&l, reps)),
        ("ingest", "reader", bench_ingest(&inst, reps)),
    ] {
        w.key(section).begin_array();
        for k in &timings {
            eprintln!(
                "{:<24} fast {:>9.1} ns  reference {:>9.1} ns  {:>6.2}x",
                k.name,
                k.fast_ns,
                k.reference_ns,
                k.speedup()
            );
            w.begin_object();
            w.key(name_key).string(k.name);
            w.key("fast_ns").number(k.fast_ns);
            w.key("reference_ns").number(k.reference_ns);
            w.key("speedup").number(k.speedup());
            w.end_object();
        }
        w.end_array();
    }

    let (start, _) = greedy::solve(&inst);
    let solver_rows = [
        ("greedy", best_ms(reps, || greedy::solve_detailed(&inst))),
        ("local_search", best_ms(reps, || localsearch::optimize(&inst, &start, LS_MOVES))),
        ("jv_dual_ascent", best_ms(reps, || jv::dual_ascent(&inst))),
    ];
    w.key("solvers").begin_array();
    for ((name, ms), (_, before)) in solver_rows.into_iter().zip(PRE_SOA_FAST_MS) {
        let vs = before / ms;
        eprintln!("{name:<24} now {ms:>8.3} ms  pre-SoA {before:>8.3} ms  {vs:>6.2}x");
        w.begin_object();
        w.key("solver").string(name);
        w.key("fast_ms").number(ms);
        w.key("bench2_fast_ms").number(before);
        w.key("speedup_vs_bench2").number(vs);
        w.end_object();
    }
    w.end_array();
    Report { document: Some(w.finish()), passed: true }
}
