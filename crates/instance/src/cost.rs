//! Validated non-negative finite cost values.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::error::InstanceError;

/// The smallest positive cost an instance accepts, 2^-256.
pub const MIN_POSITIVE_COST: f64 = f64::from_bits((1023 - 256) << 52);

/// The largest cost an instance accepts, 2^256. Sums over up to 2^32
/// links, and the spread-driven multipliers of the distributed solvers,
/// then stay far below `f64::MAX`.
pub const MAX_COST: f64 = f64::from_bits((1023 + 256) << 52);

/// Accepts a cost an instance may hold: zero, or a value in
/// [`MIN_POSITIVE_COST`]`..=`[`MAX_COST`]. [`Cost::new`] admits any finite
/// non-negative value; instance construction and deltas apply this
/// narrower range.
pub(crate) fn check_range(value: f64) -> Result<(), InstanceError> {
    if value == 0.0 || (MIN_POSITIVE_COST..=MAX_COST).contains(&value) {
        Ok(())
    } else {
        Err(InstanceError::CostOutOfRange { value })
    }
}

/// A non-negative, finite cost.
///
/// `Cost` is the only numeric type instances and solutions expose: the
/// constructor rejects `NaN`, negative, and infinite inputs, so downstream
/// arithmetic (sums, comparisons, ratios) never has to reason about
/// floating-point edge cases. Unreachable client/facility pairs are modeled
/// by the *absence* of a link in [`crate::Instance`], not by an infinite
/// cost.
///
/// ```
/// use distfl_instance::Cost;
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let a = Cost::new(1.5)?;
/// let b = Cost::new(2.5)?;
/// assert_eq!((a + b).value(), 4.0);
/// assert!(a < b);
/// assert!(Cost::new(-1.0).is_err());
/// assert!(Cost::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost(f64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0.0);

    /// Creates a cost, validating the value.
    ///
    /// Negative zero is normalized to `+0.0`, so the raw `f64` lanes the
    /// instance CSR exposes (see [`crate::LinkSlice`]) are totally ordered
    /// by plain `<` exactly as `Cost`'s `total_cmp` orders them — the
    /// invariant the chunked [`crate::kernels`] rely on for their
    /// tie-breaking guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::InvalidCost`] if `value` is `NaN`, infinite,
    /// or negative.
    pub fn new(value: f64) -> Result<Self, InstanceError> {
        if !value.is_finite() || value < 0.0 {
            return Err(InstanceError::InvalidCost { value });
        }
        // `-0.0 + 0.0 == +0.0`; every other finite non-negative value is
        // unchanged.
        Ok(Cost(value + 0.0))
    }

    /// The underlying value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Wraps a raw `f64` that is already known to be a valid cost — e.g. a
    /// value read back from [`crate::LinkSlice::costs`], whose entries were
    /// all validated by [`Cost::new`] at instance construction.
    ///
    /// Validity is debug-asserted; in release builds an invalid value is
    /// stored as-is, so this must only be used on values that round-trip
    /// through an existing `Cost`.
    #[inline]
    pub fn from_validated(value: f64) -> Cost {
        debug_assert!(
            value.is_finite() && value >= 0.0 && !(value == 0.0 && value.is_sign_negative()),
            "Cost::from_validated on unvalidated value {value}"
        );
        Cost(value)
    }

    /// Whether this cost is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The smaller of two costs.
    #[inline]
    pub fn min(self, other: Cost) -> Cost {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two costs.
    #[inline]
    pub fn max(self, other: Cost) -> Cost {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: `max(self − other, 0)`.
    #[inline]
    pub fn saturating_sub(self, other: Cost) -> Cost {
        Cost((self.0 - other.0).max(0.0))
    }

    /// The ratio `self / other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Cost) -> f64 {
        assert!(!other.is_zero(), "division by zero cost");
        self.0 / other.0
    }
}

impl PartialEq for Cost {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

// Valid because construction excludes NaN.
impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    /// Clamped at zero, like [`Cost::saturating_sub`].
    fn sub(self, rhs: Cost) -> Cost {
        self.saturating_sub(rhs)
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    /// Scales a cost by a non-negative finite factor.
    ///
    /// # Panics
    ///
    /// Panics if the factor is negative or not finite.
    fn mul(self, rhs: f64) -> Cost {
        assert!(rhs.is_finite() && rhs >= 0.0, "invalid cost scale factor {rhs}");
        Cost(self.0 * rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Cost {
    type Error = InstanceError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Cost::new(value)
    }
}

impl From<Cost> for f64 {
    fn from(c: Cost) -> f64 {
        c.value()
    }
}

/// Convenience constructor for statically-known-valid costs.
///
/// # Panics
///
/// Panics if the value is invalid; intended for literals in tests and
/// examples.
#[cfg(test)]
pub(crate) fn cost(value: f64) -> Cost {
    Cost::new(value).expect("invalid literal cost")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Cost::new(0.0).is_ok());
        assert!(Cost::new(1e300).is_ok());
        assert!(Cost::new(-0.5).is_err());
        assert!(Cost::new(f64::INFINITY).is_err());
        assert!(Cost::new(f64::NEG_INFINITY).is_err());
        assert!(Cost::new(f64::NAN).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = cost(3.0);
        let b = cost(1.0);
        assert_eq!((a + b).value(), 4.0);
        assert_eq!((a - b).value(), 2.0);
        assert_eq!((b - a).value(), 0.0, "subtraction saturates at zero");
        assert_eq!((a * 2.0).value(), 6.0);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 4.0);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = cost(1.0);
        let b = cost(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(cost(5.0).cmp(&cost(5.0)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cost = [1.0, 2.0, 3.5].into_iter().map(cost).sum();
        assert_eq!(total.value(), 6.5);
        let empty: Cost = std::iter::empty::<Cost>().sum();
        assert_eq!(empty, Cost::ZERO);
    }

    #[test]
    fn ratio() {
        assert_eq!(cost(6.0).ratio(cost(2.0)), 3.0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn ratio_by_zero_panics() {
        let _ = cost(1.0).ratio(Cost::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid cost scale")]
    fn negative_scale_panics() {
        let _ = cost(1.0) * -1.0;
    }

    #[test]
    fn negative_zero_is_normalized() {
        let c = Cost::new(-0.0).unwrap();
        assert!(c.value().is_sign_positive(), "-0.0 must normalize to +0.0");
        assert_eq!(c.cmp(&Cost::ZERO), std::cmp::Ordering::Equal);
        assert_eq!(Cost::from_validated(c.value()).value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn from_validated_round_trips() {
        for v in [0.0, 1.5, 1e300, f64::MIN_POSITIVE] {
            let c = Cost::new(v).unwrap();
            assert_eq!(Cost::from_validated(c.value()), c);
        }
    }

    #[test]
    fn conversions() {
        let c = Cost::try_from(2.5).unwrap();
        assert_eq!(f64::from(c), 2.5);
        assert!(Cost::try_from(-2.5).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(cost(1.25).to_string(), "1.25");
    }
}
