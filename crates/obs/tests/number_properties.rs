//! The cursor's number read against the standard conversion: every
//! generated JSON number must decode to exactly the bits of
//! `str::parse::<f64>`, whether the exact decimal reader converts it or
//! hands it on, and leave the cursor at its end.

use proptest::prelude::*;

use distfl_obs::Cursor;

/// `n` pseudo-random decimal digits from `seed`, the first nonzero.
fn digits(mut seed: u64, n: usize) -> String {
    (0..n)
        .map(|k| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let digit = if k == 0 { 1 + seed % 9 } else { seed % 10 };
            char::from(b'0' + digit as u8)
        })
        .collect()
}

/// A JSON number with `n` significant digits, its decimal point `point`
/// digits in (at or before the first digit: "0." and leading zeros), and
/// an optional exponent written in one of four styles.
fn literal(negative: bool, n: usize, seed: u64, point: i64, exponent: Option<(i64, u8)>) -> String {
    let body = digits(seed, n);
    let mut text = String::from(if negative { "-" } else { "" });
    if point <= 0 {
        text.push_str("0.");
        text.push_str(&"0".repeat(point.unsigned_abs() as usize));
        text.push_str(&body);
    } else if point as usize >= n {
        text.push_str(&body);
    } else {
        text.push_str(&body[..point as usize]);
        text.push('.');
        text.push_str(&body[point as usize..]);
    }
    if let Some((e, style)) = exponent {
        let sign = match (e < 0, style % 2) {
            (true, _) => "-",
            (false, 0) => "+",
            (false, _) => "",
        };
        text.push_str(if style < 2 { "e" } else { "E" });
        text.push_str(&format!("{sign}{}", e.unsigned_abs()));
    }
    text
}

/// Reads `text` as one number and checks it against `str::parse`.
fn matches_the_standard_conversion(text: &str) -> TestCaseResult {
    let mut cursor = Cursor::new(text);
    let got = cursor.number().map_err(TestCaseError::fail)?;
    let want = text.parse::<f64>().unwrap();
    prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: {} for {}", text, got, want);
    prop_assert!(cursor.end().is_ok(), "{} not read to its end", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40_000))]

    #[test]
    fn generated_literals_match_the_standard_conversion(
        negative in any::<bool>(),
        n in 1usize..=25,
        seed in any::<u64>(),
        point in -4i64..=26,
        exponent in prop::option::of((-30i64..=30, 0u8..4)),
    ) {
        matches_the_standard_conversion(&literal(negative, n, seed | 1, point, exponent))?;
    }

    #[test]
    fn mantissas_of_one_word_match_the_standard_conversion(
        mantissa in any::<u64>(),
        bits in 0u32..64,
        scale in -22i64..=22,
    ) {
        // Mantissas of every bit length, the large ones above 2^53 where
        // the exact reader rounds 128-bit products and quotients.
        let mantissa = mantissa >> bits;
        matches_the_standard_conversion(&format!("{mantissa}e{scale}"))?;
        matches_the_standard_conversion(&format!("-{mantissa}.0e{scale}"))?;
    }

    #[test]
    fn shortest_displays_of_doubles_match_the_standard_conversion(
        bits in any::<u64>(),
        exponent in 1023u64 - 80..1023 + 80,
    ) {
        // The shortest round-trip forms `Display` and `{:e}` write, over
        // every double and over doubles within 2^±80, whose shortest forms
        // mostly carry 16-17 significant digits.
        let near_one = (bits & !(0x7FF << 52)) | (exponent << 52);
        for value in [f64::from_bits(bits), f64::from_bits(near_one)] {
            if value.is_finite() {
                matches_the_standard_conversion(&format!("{value}"))?;
                matches_the_standard_conversion(&format!("{value:e}"))?;
                prop_assert_eq!(
                    Cursor::new(&format!("{value}")).number().unwrap().to_bits(),
                    value.to_bits()
                );
            }
        }
    }
}
