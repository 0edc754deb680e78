//! `bench kernels`: the number readers and the solver fast paths on the
//! `capb` shape (BENCH_7.json).
//!
//! An ingest section times the number readers on the `capb_shaped_100x1000`
//! instance (100 facilities x 1000 clients, dense): `orlib::from_str`
//! against its reference twin `from_str_reference` on the instance's
//! OR-Library text, and `Cursor::number` against `str::parse` over the
//! same cost literals (the shortest `Display` of each cost, 16-17
//! significant digits). Each pair is checked bitwise equal before it is
//! timed. A second section re-times the three solver fast paths on the
//! same instance and reports the speedup against the pre-SoA fast paths
//! as BENCH_2.json first recorded them (pinned in `PRE_SOA_FAST_MS`).
//!
//! `--smoke` skips the timing and records no document: it runs the
//! bitwise-equivalence checks of the number readers on their edge
//! literals (ties above 2^53, 19- and 20-digit mantissas, the ends of the
//! exact exponent range, digit runs of 0..=17 bytes at every offset mod 8)
//! and the request decoder's allocation gate (a rejected or unusually
//! shaped 50×500 line allocates like the valid one, and skipping an array
//! allocates nothing), and fails on any miss — the cheap CI gate.

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::{orlib, Instance, InstanceError};
use distfl_obs::{Cursor, JsonWriter};
use distfl_serve::proto::parse_line;

use crate::solvers::LS_MOVES;
use crate::{best_ms, count_allocs, Mode, Report};

/// One reader comparison: nanoseconds per call of each side.
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

/// How many more allocations than the valid line a variant of it may
/// make when decoded: the error's detail and a few strings, never a copy
/// of the payload.
const DECODE_ALLOC_SLACK: u64 = 8;

/// The request decoder's smoke pass. A stateless solve line carrying a
/// 50×500 inline instance (about 0.5 MB) is decoded, then five variants:
/// a syntax error at its last byte, `"seed":-1`, a repeated `id`, `links`
/// before `opening`, and the instance under an unknown key. Each must get
/// its answer with at most [`DECODE_ALLOC_SLACK`] more allocations than
/// the valid line, so none parses the line twice or into a tree. Skipping
/// the escape-free `links` array must allocate nothing.
fn smoke_decode(check: &mut impl FnMut(&str, bool)) {
    let inst = UniformRandom::new(50, 500).unwrap().generate(7).unwrap();
    let mut w = JsonWriter::object();
    w.key("opening").begin_array();
    for i in inst.facilities() {
        w.number(inst.opening_cost(i).value());
    }
    w.end_array();
    let opening = w.finish();
    let mut w = JsonWriter::object();
    w.key("links").begin_array();
    for j in inst.clients() {
        w.begin_array();
        for (i, c) in inst.client_links(j).iter() {
            w.number_u64(u64::from(i)).number(c);
        }
        w.end_array();
    }
    w.end_array();
    let links = w.finish();
    // The two members without their braces.
    let (opening, links) = (&opening[1..opening.len() - 1], &links[1..links.len() - 1]);
    let head = r#"{"id":"big","solver":"greedy","seed":7,"#;
    let valid = format!(r#"{head}"instance":{{{opening},{links}}}}}"#);
    let (parsed, valid_allocs) = count_allocs(|| parse_line(&valid));
    check("decode_valid", parsed.is_ok());
    let variants = [
        ("decode_syntax_at_end", valid[..valid.len() - 1].to_owned(), false),
        ("decode_negative_seed", valid.replace(r#""seed":7"#, r#""seed":-1"#), false),
        ("decode_repeated_id", valid.replace(r#"{"id""#, r#"{"id":"x","id""#), true),
        ("decode_links_first", format!(r#"{head}"instance":{{{links},{opening}}}}}"#), true),
        ("decode_unknown_key", valid.replace(r#""instance""#, r#""body""#), false),
    ];
    for (name, line, accepted) in variants {
        let (parsed, allocs) = count_allocs(|| parse_line(&line));
        if allocs > valid_allocs + DECODE_ALLOC_SLACK {
            eprintln!("{name}: {allocs} allocations, valid line {valid_allocs}");
        }
        check(name, parsed.is_ok() == accepted && allocs <= valid_allocs + DECODE_ALLOC_SLACK);
    }
    let array = &links["\"links\":".len()..];
    let (skipped, allocs) = count_allocs(|| Cursor::new(array).skip_value());
    check("skip_value_allocs", skipped.is_ok() && allocs == 0);
}

/// The smoke pass: both number readers against their references on the
/// edge literals and digit runs of [`smoke_numbers`], and the decoder's
/// allocation gate ([`smoke_decode`]).
fn smoke() -> bool {
    let mut ok = true;
    let mut check = |name: &str, cond: bool| {
        if !cond {
            eprintln!("smoke FAILED: {name}");
            ok = false;
        }
    };
    smoke_numbers(&mut check);
    smoke_decode(&mut check);
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
                "bench kernels smoke: both number readers bitwise-equal to references; \
                 rejected and unusual lines allocate like valid ones"
            );
        }
        return Report { document: None, passed };
    }

    const INSTANCE: &str = "capb_shaped_100x1000";

    // The capb OR-Library shape: the largest row of the BENCH_2 baseline.
    let inst = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    let reps = 5usize;

    let mut w = JsonWriter::object();
    w.key("bench").string("soa_kernels");
    w.key("instance").string(INSTANCE);
    w.key("baseline").string(
        "reference twins (ingest) and the fast paths of the first BENCH_2.json recording \
         (solvers, pre-SoA AoS layout)",
    );
    w.key("ingest").begin_array();
    for k in &bench_ingest(&inst, reps) {
        eprintln!(
            "{:<24} fast {:>9.1} ns  reference {:>9.1} ns  {:>6.2}x",
            k.name,
            k.fast_ns,
            k.reference_ns,
            k.speedup()
        );
        w.begin_object();
        w.key("reader").string(k.name);
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
