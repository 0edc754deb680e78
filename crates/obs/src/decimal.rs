//! The workspace's exact decimal reader: digit runs read eight bytes per
//! step, and decimal literals converted to `f64` in the same scan.
//!
//! A caller walks its own grammar (sign, integer digits, fraction,
//! exponent) and hands each digit run to [`Decimal::digits`], which folds
//! it into one integer mantissa. [`Decimal::to_f64`] then converts
//! `±mantissa × 10^scale` to exactly the `f64` that `str::parse::<f64>`
//! returns for the literal, whenever the literal has at most 19 digits
//! (leading zeros included, so the mantissa is exact in a `u64`) and
//! `scale` lies in `-22..=22`:
//!
//! - for `scale >= 0`, a mantissa up to 2^53 is one exact `u64` to `f64`
//!   conversion and one correctly rounded multiplication by an exact power
//!   of ten (Clinger's fast path, which the standard conversion takes for
//!   such literals too), and a larger one is multiplied by 5^scale in
//!   128 bits;
//! - for `scale < 0`, the mantissa, shifted until its top bit is set, is
//!   divided by 5^-scale into a 64-bit quotient and a remainder, by
//!   multiplying with a precomputed reciprocal rather than by a hardware
//!   division;
//! - either result is rounded half to even to 53 bits and scaled by a
//!   power of two, every step exact; neither the rounding nor the
//!   quotient's correction branches on the value's low bits.
//!
//! Any other literal returns `None`, and the caller hands its text to
//! `str::parse`. [`crate::Cursor::number`] reads JSON numbers this way,
//! and `distfl_instance::orlib::from_str` its plain numeric tokens.

/// The powers of ten up to 10^22: every one is exact in an `f64`.
const POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The powers of five up to 5^22 (below 2^52).
const POWERS_OF_FIVE: [u64; 23] = {
    let mut powers = [1u64; 23];
    let mut k = 1;
    while k < 23 {
        powers[k] = powers[k - 1] * 5;
        k += 1;
    }
    powers
};

/// For each 5^k: the divisor 5^k·2^z with its top bit set, the shift `z`,
/// and the divisor's reciprocal floor((2^128 - 1) / divisor) - 2^64, so
/// that [`divide`] needs no hardware division.
const DIVISORS: [(u64, u32, u64); 23] = {
    let mut divisors = [(0, 0, 0); 23];
    let mut k = 0;
    while k < 23 {
        let z = POWERS_OF_FIVE[k].leading_zeros();
        let d = POWERS_OF_FIVE[k] << z;
        divisors[k] = (d, z, (u128::MAX / d as u128 - (1 << 64)) as u64);
        k += 1;
    }
    divisors
};

/// The scale of a run of `k` digits, for `k` in `0..=8`.
const RUN_SCALE: [u64; 9] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Whether `f64` arithmetic may round twice (x87 without SSE2), which
/// rules out the exact conversion, as it does the standard conversion's
/// fast path.
const X87: bool = cfg!(all(target_arch = "x86", not(target_feature = "sse2")));

/// The high bit of every byte of a word.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// `'0'` in every byte of a word.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The digits of a decimal literal, folded into one integer mantissa.
///
/// Its methods are inlined into each caller: a number takes a few dozen
/// instructions, and called out of line they measured slower than the
/// byte-at-a-time loop they replace.
///
/// ```
/// use distfl_obs::Decimal;
///
/// let text = b"1007.3366912665307 ";
/// let mut d = Decimal::default();
/// let point = d.digits(text, 0);
/// let end = d.digits(text, point + 1);
/// let scale = -((end - point - 1) as i64);
/// assert_eq!(d.to_f64(false, scale), Some(1007.3366912665307));
/// ```
#[derive(Debug, Default)]
pub struct Decimal {
    /// The digits read so far, as one integer modulo 2^64 (exact while
    /// `digits` is at most 19).
    mantissa: u64,
    /// How many digits were read.
    digits: usize,
}

impl Decimal {
    /// Reads the run of ASCII digits of `bytes` at `pos` into the mantissa,
    /// eight bytes per step, and returns the position after the run (`pos`
    /// itself when no digit is there).
    #[inline(always)]
    pub fn digits(&mut self, bytes: &[u8], pos: usize) -> usize {
        let (mut mantissa, mut end) = (self.mantissa, pos);
        loop {
            let word = load(bytes, end);
            let run = digit_run(word);
            if run < 8 {
                if run > 0 {
                    // Move the run to the top bytes and pad the word with
                    // leading '0's, so it reads as the run's own value.
                    let padded = (word << (64 - 8 * run)) | (ZEROS >> (8 * run));
                    mantissa =
                        mantissa.wrapping_mul(RUN_SCALE[run]).wrapping_add(eight_digits(padded));
                }
                end += run;
                break;
            }
            mantissa = mantissa.wrapping_mul(RUN_SCALE[8]).wrapping_add(eight_digits(word));
            end += 8;
        }
        self.mantissa = mantissa;
        self.digits += end - pos;
        end
    }

    /// The value `±mantissa × 10^scale` as `str::parse::<f64>` reads the
    /// literal, or `None` when more than 19 digits were read or `scale`
    /// lies outside `-22..=22` (the caller then parses the text).
    #[inline(always)]
    pub fn to_f64(&self, negative: bool, scale: i64) -> Option<f64> {
        if self.digits > 19 || X87 || !(-22..=22).contains(&scale) {
            return None;
        }
        let (w, k) = (self.mantissa, scale.unsigned_abs() as usize);
        let value = if scale >= 0 {
            if w <= 1 << 53 {
                w as f64 * POWERS_OF_TEN[k]
            } else {
                // w·5^k, shifted until its top bit is set; the bits below
                // its top 64 fold into one sticky bit.
                let product = u128::from(w) * u128::from(POWERS_OF_FIVE[k]);
                let lz = product.leading_zeros();
                let product = product << lz;
                let sticky = product as u64 != 0;
                round((product >> 64) as u64 | u64::from(sticky), 64 + k as i32 - lz as i32)
            }
        } else if w == 0 {
            0.0
        } else {
            // w·2^zw·2^(64-c) / (5^k·2^z), with c = 1 when the shifted
            // mantissa is not below the divisor, is a 64-bit quotient.
            let zw = w.leading_zeros();
            let w = w << zw;
            let (d, z, v) = DIVISORS[k];
            let c = u32::from(w >= d);
            let (q, r) = divide(w >> c, (w & u64::from(c)) << 63, d, v);
            round(q | u64::from(r != 0), (z + c) as i32 - zw as i32 - 64 - k as i32)
        };
        Some(if negative { -value } else { value })
    }
}

/// The quotient and remainder of `hi·2^64 + lo` by `d`, for a `d` with
/// its top bit set, `hi < d` and `v` the reciprocal of [`DIVISORS`]:
/// Möller and Granlund's division by an invariant integer ("Improved
/// division by invariant integers", IEEE Trans. Computers, 2011, Alg. 4).
#[inline(always)]
fn divide(hi: u64, lo: u64, d: u64, v: u64) -> (u64, u64) {
    let estimate =
        (u128::from(v) * u128::from(hi)).wrapping_add((u128::from(hi) << 64) | u128::from(lo));
    let q = ((estimate >> 64) as u64).wrapping_add(1);
    let r = lo.wrapping_sub(q.wrapping_mul(d));
    // The estimate is one too large about half the time: correct it
    // without a branch.
    let over = u64::from(r > estimate as u64);
    let (mut q, mut r) = (q.wrapping_sub(over), r.wrapping_add(d & over.wrapping_neg()));
    if r >= d {
        q += 1;
        r -= d;
    }
    (q, r)
}

/// `x × 2^exp2` rounded half to even to 53 bits, for an `x` with its top
/// bit set whose last bit is sticky (set when anything nonzero was cut
/// below it). The result is normal for every `x` and `exp2`
/// [`Decimal::to_f64`] passes, so each step is exact.
#[inline(always)]
fn round(x: u64, exp2: i32) -> f64 {
    let (top, rest) = (x >> 11, x & 0x7FF);
    // `|` and `&`, not `||` and `&&`: no branch on the random low bits.
    let up = (rest > 0x400) | ((rest == 0x400) & (top & 1 == 1));
    // At most 2^53 after rounding up, so the conversion is exact.
    let top = (top + u64::from(up)) as i64;
    top as f64 * f64::from_bits(((exp2 + 11 + 1023) as u64) << 52)
}

/// The eight bytes of `bytes` at `pos` as a little-endian word, with zero
/// bytes (never digits) past the end.
#[inline(always)]
fn load(bytes: &[u8], pos: usize) -> u64 {
    match bytes.get(pos..pos + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => load_tail(bytes, pos),
    }
}

#[cold]
#[inline(never)]
fn load_tail(bytes: &[u8], pos: usize) -> u64 {
    let mut word = [0u8; 8];
    let tail = bytes.get(pos..).unwrap_or_default();
    word[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(word)
}

/// How many of a word's first bytes are ASCII digits (0 to 8).
#[inline(always)]
fn digit_run(word: u64) -> usize {
    // A digit byte neither carries out of `+ 0x46` nor borrows out of
    // `- '0'`, and leaves both high bits clear; every other byte sets one
    // of them. So the lowest high bit set marks the first byte that is not
    // a digit, whatever the carries do above it.
    let other = (word.wrapping_add(0x4646_4646_4646_4646) | word.wrapping_sub(ZEROS)) & HIGH;
    other.trailing_zeros() as usize / 8
}

/// The value of eight ASCII digits, the first in the lowest byte.
#[inline(always)]
fn eight_digits(word: u64) -> u64 {
    let v = word - ZEROS;
    // Pairs of digits, then the pairs' pairs, by multiply and shift.
    let v = v * 10 + (v >> 8);
    let v1 = (v & 0x0000_00FF_0000_00FF).wrapping_mul(0x000F_4240_0000_0064);
    let v2 = ((v >> 16) & 0x0000_00FF_0000_00FF).wrapping_mul(0x0000_2710_0000_0001);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `text` read as `-?digits(.digits)?(e-?digits)?`.
    fn read(text: &str) -> Option<f64> {
        let b = text.as_bytes();
        let negative = text.starts_with('-');
        let mut d = Decimal::default();
        let mut p = d.digits(b, usize::from(negative));
        let mut scale = 0i64;
        if b.get(p) == Some(&b'.') {
            let end = d.digits(b, p + 1);
            scale = -((end - p - 1) as i64);
            p = end;
        }
        if b.get(p) == Some(&b'e') {
            scale += text[p + 1..].parse::<i64>().unwrap();
        }
        d.to_f64(negative, scale)
    }

    #[test]
    fn exact_conversions_match_the_standard_one() {
        for text in [
            "0",
            "-0",
            "9007199254740992",
            "9007199254740993",
            "9007199254740995",
            "18014398509481985",
            "1234567890123456789",
            "9999999999999999999",
            "0.000000000000000001",
            "1e22",
            "1e-22",
            "-4.9406564584124654e-6",
            "1007.3366912665307",
            "0.30000000000000004",
            "123456789012345678e-22",
            "9999999999999999999e22",
            "9999999999999999999e-22",
        ] {
            let want = text.parse::<f64>().unwrap();
            assert_eq!(read(text).map(f64::to_bits), Some(want.to_bits()), "{text}");
        }
    }

    #[test]
    fn out_of_range_literals_are_left_to_the_standard_conversion() {
        for text in [
            "18446744073709551615",
            "0.0000000000000000001",
            "1e23",
            "1e-23",
            "1234567890.1234567891",
        ] {
            assert_eq!(read(text), None, "{text}");
        }
    }

    #[test]
    fn digit_runs_stop_at_the_first_other_byte_at_every_offset() {
        for offset in 0..8 {
            for len in 0..=17 {
                for stop in [b'/', b':', b'.', b'e', 0x80, 0xC3] {
                    let mut text = vec![b'x'; offset];
                    text.extend((0..len).map(|k| b"1234567890"[k % 10]));
                    text.push(stop);
                    text.extend_from_slice(b"99999999");
                    let mut d = Decimal::default();
                    assert_eq!(d.digits(&text, offset), offset + len, "{offset} {len} {stop}");
                    let digits = std::str::from_utf8(&text[offset..offset + len]).unwrap();
                    let want = if len == 0 { 0.0 } else { digits.parse::<f64>().unwrap() };
                    assert_eq!(d.to_f64(false, 0), Some(want), "{digits}");
                }
            }
        }
        // A run that reaches the end of the text.
        for len in 0..=17 {
            let text: Vec<u8> = (0..len).map(|k| b"9876543210"[k % 10]).collect();
            assert_eq!(Decimal::default().digits(&text, 0), len);
        }
    }
}
