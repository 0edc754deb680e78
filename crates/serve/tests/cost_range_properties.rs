//! Property test pinning the instance cost range at the service boundary:
//! each line goes through `proto::parse_line` and `scheduler::execute`,
//! exactly as a shard answers it.
//!
//! Instances accept zero and positive costs in `2^-256..=2^256`
//! ([`MIN_POSITIVE_COST`], [`MAX_COST`]). Every solver kind must answer an
//! instance drawn from that range with `ok` and a finite cost, and an
//! instance holding any positive cost outside it with a typed
//! `invalid_instance` — never a panic, a hang, or a null cost.

use proptest::prelude::*;

use distfl_instance::{MAX_COST, MIN_POSITIVE_COST};
use distfl_obs::JsonWriter;
use distfl_serve::proto::{self, Parsed};
use distfl_serve::scheduler;
use distfl_serve::session::SessionCache;

const KINDS: [&str; 7] =
    ["greedy", "local-search", "jv", "paydual", "metricball", "outliers", "auto"];

/// The coefficient pool: zero, one, and each range bound with its float
/// neighbour inside the range (the first six, all accepted), then the
/// neighbours outside the range and the extreme finite magnitudes.
fn magnitudes() -> [f64; 10] {
    [
        0.0,
        1.0,
        MIN_POSITIVE_COST,
        MIN_POSITIVE_COST.next_up(),
        MAX_COST,
        MAX_COST.next_down(),
        MIN_POSITIVE_COST.next_down(),
        MAX_COST.next_up(),
        5e-324,
        1e308,
    ]
}

fn in_range(c: f64) -> bool {
    c == 0.0 || (MIN_POSITIVE_COST..=MAX_COST).contains(&c)
}

/// A dense instance of `m` facilities and `n` clients whose coefficients
/// are picked from [`magnitudes`]: `(opening, per-client link costs)`.
/// Half the draws pick from the accepted six only.
fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    (1usize..4, 1usize..5, 0usize..2, prop::collection::vec(0usize..10, 20)).prop_map(
        |(m, n, accepted_only, picks)| {
            let pool = magnitudes();
            let width = if accepted_only == 1 { 6 } else { pool.len() };
            let mut pick = picks.into_iter().cycle().map(|k| pool[k % width]);
            let opening: Vec<f64> = (0..m).map(|_| pick.next().unwrap()).collect();
            let links = (0..n).map(|_| (0..m).map(|_| pick.next().unwrap()).collect()).collect();
            (opening, links)
        },
    )
}

/// An inline solve request for `kind` over the instance.
fn request(kind: &str, opening: &[f64], links: &[Vec<f64>]) -> String {
    let mut w = JsonWriter::object();
    w.key("id").string("p");
    w.key("solver").string(kind);
    w.key("seed").number_u64(1);
    w.key("instance").begin_object();
    w.key("opening").begin_array();
    for &f in opening {
        w.number(f);
    }
    w.end_array();
    w.key("links").begin_array();
    for row in links {
        w.begin_array();
        for (i, &c) in row.iter().enumerate() {
            w.number_u64(i as u64).number(c);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_kind_answers_in_range_costs_and_rejects_the_rest(drawn in instance()) {
        let (opening, links) = drawn;
        let costs = || opening.iter().chain(links.iter().flatten()).copied();
        let accepted = costs().all(in_range) && costs().any(|c| c > 0.0);
        let sessions = SessionCache::new(1);
        for kind in KINDS {
            let line = request(kind, &opening, &links);
            // Inline instances are built while the line parses, so a bad
            // one is answered by the parse error, as the server does.
            let response = match proto::parse_line(&line) {
                Ok(Parsed::Request(req)) => scheduler::execute(&req, &sessions),
                Ok(Parsed::Command(_)) => panic!("a solve is not a command: {line}"),
                Err(error) => proto::render_error(&error, proto::span_id(line.as_bytes())),
            };
            if accepted {
                prop_assert!(response.contains(r#""ok":true"#), "{kind}: {line} -> {response}");
                prop_assert!(!response.contains(r#""cost":null"#), "{kind}: {response}");
            } else {
                prop_assert!(
                    response.contains(r#""kind":"invalid_instance""#),
                    "{kind}: {line} -> {response}"
                );
            }
        }
    }
}

#[test]
fn the_pool_straddles_both_bounds() {
    let pool = magnitudes();
    assert!(pool[..6].iter().all(|&c| in_range(c)));
    assert!(!pool[6..].iter().any(|&c| in_range(c)));
    // The JSON writer renders every pool value so that it parses back
    // bit-exactly.
    for c in pool {
        let json = request("greedy", &[c], &[vec![1.0]]);
        let parsed = distfl_obs::Json::parse(&json).unwrap();
        let opening = parsed.get("instance").and_then(|i| i.get("opening")).unwrap();
        assert_eq!(opening.as_array().unwrap()[0].as_f64().unwrap().to_bits(), c.to_bits());
    }
}
