//! `bench portfolio`: the solver portfolio and its auto-routing
//! classifier (BENCH_10.json).
//!
//! Runs every addressable [`SolverKind`] — the sequential baselines, the
//! distributed PayDual and MetricBall protocols, the robust outliers
//! variant, and classifier-driven `auto` — over a matrix of metric and
//! non-metric generator families. Small facility counts keep the *exact*
//! optimum computable by subset enumeration, so the document reports true
//! approximation ratios, not ratios against another heuristic.
//!
//! Every row also asserts the portfolio's correctness contracts, so a
//! number reported here is a number on a *verified* run:
//!
//! * the distributed MetricBall solution is bit-identical to its
//!   sequential reference replay (`metricball::solve_reference`), and the
//!   outliers pipeline to `outliers::solve_reference`;
//! * `auto` resolves metric families to `metricball` and non-metric
//!   families away from it, and its solution equals the routed kind's;
//! * the classifier's allocations per link stay under a budget measured
//!   with the counting allocator, so profiling an instance stays cheap
//!   enough to run on every `auto` request.
//!
//! `--smoke` re-runs the assertions and the allocation gate on small
//! instances and fails on any violation — including a MetricBall
//! approximation ratio above the budget recorded in the committed
//! BENCH_10.json.

use distfl_core::{metricball, outliers, SolverKind};
use distfl_instance::classify;
use distfl_instance::generators::{
    Clustered, Euclidean, InstanceGenerator, Metricized, PowerLaw, UniformRandom,
};
use distfl_instance::Instance;
use distfl_obs::JsonWriter;

use crate::{best_ms, count_allocs, snapshot, Mode, Report};

/// Allocations per link one `classify` call may spend (amortized; the
/// exhaustive small-instance path allocates almost nothing, the sampled
/// path a seeded RNG and a handful of buffers). The committed
/// BENCH_10.json records this value and `--smoke` enforces it.
const CLASSIFY_ALLOCS_PER_LINK_BUDGET: f64 = 1.0;

/// Worst acceptable MetricBall approximation ratio on the metric rows
/// (the theory bound is a constant; defaults pin it well under the
/// sequential baselines' worst case). `--smoke` reads the committed
/// value back from BENCH_10.json when present.
const METRICBALL_RATIO_BUDGET: f64 = 6.0;

/// The portfolio under measurement, in report order.
const KINDS: [SolverKind; 7] = [
    SolverKind::Greedy,
    SolverKind::LocalSearch,
    SolverKind::JainVazirani,
    SolverKind::PayDual,
    SolverKind::MetricBall,
    SolverKind::MetricOutliers,
    SolverKind::Auto,
];

/// Fixed solve seed: the document is a deterministic function of the
/// code, so CI diffs are meaningful.
const SEED: u64 = 7;

/// Exact optimum by enumeration over all non-empty facility subsets —
/// viable because the bench keeps `m` small. Subsets that leave a client
/// uncovered are skipped.
fn exact_optimum(instance: &Instance) -> f64 {
    let m = instance.num_facilities();
    assert!(m <= 16, "exact optimum needs a small facility count, got {m}");
    let opening: Vec<f64> =
        instance.facilities().map(|i| instance.opening_cost(i).value()).collect();
    let mut best = f64::INFINITY;
    for mask in 1u32..(1 << m) {
        let mut cost: f64 = (0..m).filter(|&i| mask & (1 << i) != 0).map(|i| opening[i]).sum();
        if cost >= best {
            continue;
        }
        let mut feasible = true;
        for j in instance.clients() {
            let mut cheapest = f64::INFINITY;
            for (i, c) in instance.client_links(j).iter() {
                if mask & (1 << i) != 0 {
                    cheapest = cheapest.min(c);
                }
            }
            if cheapest.is_infinite() {
                feasible = false;
                break;
            }
            cost += cheapest;
            if cost >= best {
                feasible = false;
                break;
            }
        }
        if feasible {
            best = best.min(cost);
        }
    }
    assert!(best.is_finite(), "instance admits no feasible subset");
    best
}

/// One benchmark instance: name, payload, and whether the generator
/// family guarantees metric costs (drives the routing assertions).
struct Row {
    name: &'static str,
    instance: Instance,
    metric_family: bool,
}

fn instances(quick: bool) -> Vec<Row> {
    let mut rows = vec![
        Row {
            name: "euclidean_6x40",
            instance: Euclidean::new(6, 40).unwrap().generate(1).unwrap(),
            metric_family: true,
        },
        Row {
            name: "metricized_uniform_8x60",
            instance: Metricized::new(UniformRandom::new(8, 60).unwrap()).generate(2).unwrap(),
            metric_family: true,
        },
        Row {
            name: "uniform_8x60",
            instance: UniformRandom::new(8, 60).unwrap().generate(3).unwrap(),
            metric_family: false,
        },
        Row {
            name: "powerlaw_6x40",
            instance: PowerLaw::new(6, 40, 1e3).unwrap().generate(4).unwrap(),
            metric_family: false,
        },
    ];
    if !quick {
        rows.push(Row {
            name: "metricized_clustered_10x150",
            instance: Metricized::new(Clustered::new(3, 10, 150).unwrap()).generate(5).unwrap(),
            metric_family: true,
        });
        rows.push(Row {
            name: "uniform_12x300",
            instance: UniformRandom::new(12, 300).unwrap().generate(6).unwrap(),
            metric_family: false,
        });
    }
    rows
}

/// Verifies the portfolio contracts on one instance: distributed
/// solutions bit-identical to their sequential reference replays, and
/// `auto` equal to the kind it routed to.
fn verify_contracts(instance: &Instance) {
    let ball = SolverKind::MetricBall.solve(instance, SEED).expect("metricball solves");
    let reference = metricball::solve_reference(instance, 6, SEED).expect("reference solves");
    assert_eq!(ball.solution, reference, "metricball diverged from its reference replay");

    let robust = SolverKind::MetricOutliers.solve(instance, SEED).expect("outliers solves");
    let reference =
        outliers::solve_reference(instance, Default::default(), SEED).expect("reference solves");
    assert_eq!(robust.solution, reference, "outliers diverged from reference");

    let routed = SolverKind::Auto.resolve(instance);
    let auto = SolverKind::Auto.solve(instance, SEED).expect("auto solves");
    let direct = routed.solve(instance, SEED).expect("routed kind solves");
    assert_eq!(auto.solution, direct.solution, "auto diverged from its route");
}

pub(crate) fn run(mode: Mode) -> Report {
    let committed = if mode == Mode::Smoke { snapshot("BENCH_10.json") } else { None };
    let budget = |key: &str, default: f64| {
        committed.as_ref().and_then(|s| s.get(key)?.as_f64()).unwrap_or(default)
    };
    let alloc_budget = budget("classify_allocs_per_link_budget", CLASSIFY_ALLOCS_PER_LINK_BUDGET);
    let ratio_budget = budget("metricball_ratio_budget", METRICBALL_RATIO_BUDGET);

    let reps = if mode.quick() { 2usize } else { 3 };
    let mut worst_classify_allocs = 0.0f64;
    let mut worst_metric_ratio = 0.0f64;
    let mut failed = false;
    let mut w = JsonWriter::object();
    w.key("bench").string("solver_portfolio");
    w.key("mode").string(mode.name());
    w.key("seed").number_u64(SEED);
    w.key("baseline").string(
        "exact optimum by facility-subset enumeration; distributed kinds verified bit-identical \
         to their sequential reference replays",
    );
    w.key("classify_allocs_per_link_budget").number(CLASSIFY_ALLOCS_PER_LINK_BUDGET);
    w.key("metricball_ratio_budget").number(METRICBALL_RATIO_BUDGET);
    w.key("results").begin_array();
    for Row { name, instance, metric_family } in instances(mode.quick()) {
        verify_contracts(&instance);

        let (profile, classify_allocs) = count_allocs(|| classify::classify(&instance));
        let allocs_per_link = classify_allocs as f64 / instance.num_links().max(1) as f64;
        worst_classify_allocs = worst_classify_allocs.max(allocs_per_link);
        let classify_ms = best_ms(reps, || classify::classify(&instance));

        // Routing assertions: the classifier must send every
        // metric-family row to the metric specialist and keep every
        // non-metric row away from it.
        let routed = SolverKind::Auto.resolve(&instance);
        if metric_family && routed != SolverKind::MetricBall {
            eprintln!("error: {name} is a metric family but auto routed to {routed}");
            failed = true;
        }
        if !metric_family && routed == SolverKind::MetricBall {
            eprintln!("error: {name} is non-metric but auto routed to metricball");
            failed = true;
        }

        let optimum = exact_optimum(&instance);
        eprintln!(
            "{name:<28} {} links, metricity {:?}, auto -> {}, opt {optimum:.3}, \
             classify {allocs_per_link:.2} allocs/link",
            instance.num_links(),
            profile.metricity,
            routed.name(),
        );
        w.begin_object();
        w.key("instance").string(name);
        w.key("facilities").number_u64(instance.num_facilities() as u64);
        w.key("clients").number_u64(instance.num_clients() as u64);
        w.key("links").number_u64(instance.num_links() as u64);
        w.key("metric_family").boolean(metric_family);
        w.key("metricity").string(&format!("{:?}", profile.metricity));
        w.key("observed_defect").number(profile.observed_defect);
        w.key("routed").string(routed.name());
        w.key("classify_ms").number(classify_ms);
        w.key("classify_allocs_per_link").number(allocs_per_link);
        w.key("exact_optimum").number(optimum);
        let dropped = outliers::select_outliers(&instance, 0.1);
        w.key("kinds").begin_array();
        for kind in KINDS {
            let solve_ms = best_ms(reps, || kind.solve(&instance, SEED).unwrap());
            let outcome = kind.solve(&instance, SEED).unwrap();
            let cost = outcome.solution.cost(&instance).value();
            let ratio = cost / optimum;
            if metric_family && kind == SolverKind::MetricBall {
                worst_metric_ratio = worst_metric_ratio.max(ratio);
            }
            w.begin_object();
            w.key("kind").string(kind.name());
            w.key("cost").number(cost);
            w.key("ratio").number(ratio);
            w.key("rounds");
            match &outcome.transcript {
                Some(t) => w.number_u64(u64::from(t.num_rounds())),
                None => w.null(),
            };
            // The robust objective of the outliers kind: what it pays on
            // the clients it chose to keep.
            w.key("robust_cost");
            if kind == SolverKind::MetricOutliers {
                w.number(outliers::robust_cost(&instance, &outcome.solution, &dropped));
            } else {
                w.null();
            }
            w.key("ms").number(solve_ms);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();

    // Routing and budgets gate smoke runs; full and quick runs report.
    if mode != Mode::Smoke {
        return Report { document: Some(w.finish()), passed: true };
    }
    for (what, worst, budget) in [
        ("classify allocations per link", worst_classify_allocs, alloc_budget),
        ("metricball ratio on metric instances", worst_metric_ratio, ratio_budget),
    ] {
        if worst > budget {
            eprintln!("error: {what} {worst:.3} exceed the budget {budget}");
            failed = true;
        }
    }
    Report { document: Some(w.finish()), passed: !failed }
}
