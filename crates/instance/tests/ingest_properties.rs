//! Equivalence properties of the ingestion paths: the OR-Library byte
//! tokenizer against its `lines`/`split_whitespace` reference twin, and
//! the row-ordered builder against the arbitrary-order
//! [`InstanceBuilder`]. Each pair must agree on every instance, and on
//! every error down to its line number or the link that raised it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::{orlib, ClientId, Cost, FacilityId, Instance, InstanceBuilder, RowBuilder};

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

/// Both parsers' outcome, errors compared by their full debug form
/// (variant, line number, reason).
fn outcome(parsed: Result<Instance, distfl_instance::InstanceError>) -> Result<Instance, String> {
    parsed.map_err(|e| format!("{e:?}"))
}

/// Tokens spliced into payloads: values `str::parse` accepts that are not
/// costs, forms only some parsers accept, and header-sized counts.
const TOKENS: [&str; 14] = [
    "1e309",
    "NaN",
    "-1",
    "inf",
    "+5",
    ".5",
    "5.",
    "1E5",
    "0x10",
    "4294967295",
    "4294967296",
    "0",
    "1e-300",
    "-0",
];

/// Separators spliced into payloads: `split_whitespace` splits on all of
/// them, while `u8::is_ascii_whitespace` knows neither `\x0B` nor the
/// Unicode ones.
const SEPARATORS: [&str; 7] = ["\x0B", "\u{A0}", "\u{2028}", "\u{85}", "\u{3000}", "\x0C", "\r"];

/// Multi-byte characters that are not white space: they extend a token.
const WIDE: [&str; 4] = ["\u{E9}", "\u{20AC}", "\u{200B}", "\u{1D11E}"];

/// One edit of an OR-Library payload at byte `at` (moved back to a
/// character boundary).
fn edit(text: &mut String, class: u8, at: usize, pick: usize) {
    let mut at = at % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    match class {
        0 => text.truncate(at),
        1 => *text = text.replace('\n', "\r\n"),
        2 if pick.is_multiple_of(3) => text.insert_str(at, WIDE[pick % WIDE.len()]),
        2 => text.insert_str(at, SEPARATORS[pick % SEPARATORS.len()]),
        3 => text.insert_str(at, &format!(" {} ", TOKENS[pick % TOKENS.len()])),
        4 => {
            // Replace the whitespace run at or after `at` with a separator.
            if let Some(k) = text[at..].find([' ', '\n']) {
                text.replace_range(at + k..at + k + 1, SEPARATORS[pick % SEPARATORS.len()]);
            }
        }
        5 => {
            let mut end = (at + 1 + pick % 4).min(text.len());
            while !text.is_char_boundary(end) {
                end += 1;
            }
            text.replace_range(at..end, "");
        }
        6 => {
            // Swap the header for a hostile one.
            let body = text.find('\n').map_or("", |k| &text[k..]).to_owned();
            let (m, n) = (TOKENS[pick % TOKENS.len()], TOKENS[(pick / 7) % TOKENS.len()]);
            *text = format!("{m} {n}{body}");
        }
        _ => text.clear(),
    }
}

/// A payload in the published shape with wrapped cost lines, as
/// `orlib::to_string` never writes it.
fn wrapped(inst: &Instance, width: usize) -> String {
    let mut out = format!(" {} {}\n", inst.num_facilities(), inst.num_clients());
    for i in inst.facilities() {
        out.push_str(&format!("0 {}\n", inst.opening_cost(i).value()));
    }
    for j in inst.clients() {
        out.push_str(" 3\n");
        for chunk in inst.client_links(j).costs.chunks(width.max(1)) {
            let row: Vec<String> = chunk.iter().map(|c| format!("{c}")).collect();
            out.push_str(&format!(" {}\n", row.join("  ")));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn orlib_tokenizer_matches_its_reference_twin(
        inst in any_instance(),
        width in 0usize..5,
        edits in prop::collection::vec((0u8..8, any::<usize>(), any::<usize>()), 0..4),
    ) {
        // Sparse instances have no OR-Library form; write their dense
        // completion instead (every row padded with cost 1).
        let mut text = match orlib::to_string(&inst) {
            Ok(text) if width == 0 => text,
            _ => {
                let dense = Instance::from_dense(
                    (0..inst.num_facilities())
                        .map(|i| inst.opening_cost(FacilityId::new(i as u32)))
                        .collect(),
                    inst.clients()
                        .map(|j| {
                            inst.facilities()
                                .map(|i| inst.connection_cost(j, i).unwrap_or(Cost::new(1.0).unwrap()))
                                .collect()
                        })
                        .collect(),
                )
                .unwrap();
                wrapped(&dense, width)
            }
        };
        for (class, at, pick) in edits {
            edit(&mut text, class, at, pick);
        }
        prop_assert_eq!(
            outcome(orlib::from_str(&text)),
            outcome(orlib::from_str_reference(&text)),
            "payload {:?}", text
        );
    }

    #[test]
    fn row_builder_matches_the_instance_builder_on_shuffled_rows(
        inst in any_instance(),
        seed in any::<u64>(),
        duplicate in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<(u32, f64)>> =
            inst.clients().map(|j| inst.client_links(j).iter().collect()).collect();
        for row in &mut rows {
            for k in (1..row.len()).rev() {
                row.swap(k, rng.gen_range(0..=k));
            }
        }
        if duplicate {
            // Repeat one link of one row at a later position: both builders
            // must refuse it at that link.
            let j = rng.gen_range(0..rows.len());
            let k = rng.gen_range(0..rows[j].len());
            let at = rng.gen_range(k + 1..=rows[j].len());
            let (i, _) = rows[j][k];
            rows[j].insert(at, (i, 7.0));
        }
        let opening: Vec<Cost> = inst.facilities().map(|i| inst.opening_cost(i)).collect();

        // Each builder's outcome: the instance, or the (client, position,
        // error) of the first link it refused.
        let mut by_rows = RowBuilder::new(opening.clone());
        let mut row_outcome = None;
        'rows: for (j, row) in rows.iter().enumerate() {
            prop_assert_eq!(by_rows.add_client(), ClientId::new(j as u32));
            for (k, &(i, c)) in row.iter().enumerate() {
                if let Err(e) = by_rows.link(FacilityId::new(i), Cost::new(c).unwrap()) {
                    row_outcome = Some(Err((j, k, e)));
                    break 'rows;
                }
            }
        }
        let row_outcome = row_outcome.unwrap_or_else(|| Ok(by_rows.build().unwrap()));

        let mut by_links = InstanceBuilder::new();
        for &c in &opening {
            by_links.add_facility(c);
        }
        let clients: Vec<ClientId> = rows.iter().map(|_| by_links.add_client()).collect();
        let mut link_outcome = None;
        'links: for (j, row) in rows.iter().enumerate() {
            for (k, &(i, c)) in row.iter().enumerate() {
                if let Err(e) = by_links.link(clients[j], FacilityId::new(i), Cost::new(c).unwrap()) {
                    link_outcome = Some(Err((j, k, e)));
                    break 'links;
                }
            }
        }
        let link_outcome = link_outcome.unwrap_or_else(|| Ok(by_links.build().unwrap()));

        prop_assert_eq!(&row_outcome, &link_outcome);
        match row_outcome {
            Ok(built) => prop_assert_eq!(built, inst),
            Err(_) => prop_assert!(duplicate, "only the spliced duplicate is refused"),
        }
    }
}

#[test]
fn separators_and_line_counts_follow_the_reference() {
    let base = "2 1\n0 4\n0 3\n0\n1 2\n";
    for text in [
        String::new(),
        "\n".to_owned(),
        "2 1".to_owned(),
        "2 1\r\n0 4\r\n".to_owned(),
        base.replace(' ', "\x0B"),
        base.replace(' ', "\u{A0}"),
        base.replace('\n', "\u{2028}"),
        base.replace(' ', "\u{1}"),
        base.replace(' ', "\u{200B}"),
        base.replace('3', "3\u{E9}"),
        base.replace('4', "\u{20AC}4"),
        format!("{base}\u{1D11E}"),
        "4294967295 1\n0 1\n".to_owned(),
        "1 1\n0 NaN\n0\n1\n".to_owned(),
        "1 1\n0 1\n0\n1e309\n".to_owned(),
        "1 1\n0 1\n0\n-1\n".to_owned(),
        "1 1\n0 0\n0\n0\n".to_owned(),
        "1 1\n0 1e300\n0\n1\n".to_owned(),
        format!("{base}trailing tokens are ignored"),
        base.trim_end().to_owned(),
    ] {
        assert_eq!(
            outcome(orlib::from_str(&text)),
            outcome(orlib::from_str_reference(&text)),
            "payload {text:?}"
        );
    }
    // A separator that is not white space joins its neighbours into one
    // token, as in the reference.
    let err = orlib::from_str(&base.replace(' ', "\u{1}")).unwrap_err().to_string();
    assert!(err.contains("line 1") && err.contains("facility count"), "{err}");
}

#[test]
fn a_row_builder_refuses_links_before_any_client() {
    let mut rows = RowBuilder::new(vec![Cost::new(1.0).unwrap()]);
    assert!(rows.link(FacilityId::new(0), Cost::new(1.0).unwrap()).is_err());
    assert!(rows.clone().build().is_err(), "no clients");
    rows.add_client();
    assert!(rows.link(FacilityId::new(1), Cost::new(1.0).unwrap()).is_err(), "out of range");
    rows.add_client();
    assert!(rows.build().is_err(), "client 0 has no link");
}
