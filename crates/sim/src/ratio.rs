//! Exact non-negative rational arithmetic.
//!
//! Injection rates in the paper are rationals like `r = 1/2 + ε`.
//! Floating point would make the adversary validators unsound near
//! their boundary (exactly where the paper's bounds live: the
//! difference between "stable at `r ≤ 1/d`" and "unstable at
//! `r = 1/2 + ε`" is decided by exact counting), so every constraint
//! check is done in integer arithmetic via this type.

use std::cmp::Ordering;
use std::fmt;

use crate::error::SimError;

/// A non-negative rational `num/den` in lowest terms. `den > 0` always.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Construct `num/den`, reduced to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "denominator must be nonzero");
        if num == 0 {
            return Ratio { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// `1/2 + eps` for a rational `eps` — the paper's instability rate.
    ///
    /// # Panics
    /// Panics if the result does not fit `u64/u64`; use
    /// [`Ratio::try_half_plus`] to handle that case.
    pub fn half_plus(eps: Ratio) -> Ratio {
        Ratio::try_half_plus(eps).expect("Ratio::half_plus overflowed")
    }

    /// Checked [`Ratio::half_plus`]: `Err(SimError::Overflow)` when
    /// `1/2 + eps` does not fit `u64/u64` in lowest terms.
    pub fn try_half_plus(eps: Ratio) -> Result<Ratio, SimError> {
        let num = eps.den as u128 + 2 * eps.num as u128;
        let den = 2 * eps.den as u128;
        ratio_from_u128(num, den, "Ratio::half_plus")
    }

    /// Numerator (lowest terms).
    #[inline]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator (lowest terms).
    #[inline]
    pub fn den(self) -> u64 {
        self.den
    }

    /// `⌊self · k⌋`, exact via a `u128` intermediate.
    ///
    /// # Panics
    /// Panics if the result exceeds `u64::MAX` (only possible for
    /// ratios above 1); use [`Ratio::try_floor_mul`] to handle it.
    pub fn floor_mul(self, k: u64) -> u64 {
        self.try_floor_mul(k).expect("Ratio::floor_mul overflowed")
    }

    /// Checked [`Ratio::floor_mul`].
    pub fn try_floor_mul(self, k: u64) -> Result<u64, SimError> {
        let p = (self.num as u128 * k as u128) / self.den as u128;
        u128_to_u64(p, "Ratio::floor_mul")
    }

    /// `⌈self · k⌉`.
    ///
    /// # Panics
    /// Panics if the result exceeds `u64::MAX`; use
    /// [`Ratio::try_ceil_mul`] to handle it.
    pub fn ceil_mul(self, k: u64) -> u64 {
        self.try_ceil_mul(k).expect("Ratio::ceil_mul overflowed")
    }

    /// Checked [`Ratio::ceil_mul`].
    pub fn try_ceil_mul(self, k: u64) -> Result<u64, SimError> {
        let p = (self.num as u128 * k as u128).div_ceil(self.den as u128);
        u128_to_u64(p, "Ratio::ceil_mul")
    }

    /// `⌈1/self⌉`. Panics on zero. Never overflows: the result is at
    /// most `den ≤ u64::MAX`.
    pub fn ceil_inv(self) -> u64 {
        assert!(self.num != 0, "cannot invert zero");
        (self.den as u128).div_ceil(self.num as u128) as u64
    }

    /// `⌈k / self⌉` — e.g. "the first `X · 1/r` time steps" in
    /// Lemma 3.6's adversary.
    ///
    /// # Panics
    /// Panics on a zero ratio, or if the result exceeds `u64::MAX`;
    /// use [`Ratio::try_ceil_div_int`] for the latter.
    pub fn ceil_div_int(self, k: u64) -> u64 {
        self.try_ceil_div_int(k)
            .expect("Ratio::ceil_div_int overflowed")
    }

    /// Checked [`Ratio::ceil_div_int`]. Still panics on a zero ratio
    /// (a contract violation, not an input-size problem).
    pub fn try_ceil_div_int(self, k: u64) -> Result<u64, SimError> {
        assert!(self.num != 0, "cannot divide by zero");
        let p = (k as u128 * self.den as u128).div_ceil(self.num as u128);
        u128_to_u64(p, "Ratio::ceil_div_int")
    }

    /// Exact sum.
    ///
    /// # Panics
    /// Panics if the reduced result does not fit `u64/u64`; use
    /// [`Ratio::try_add`] to handle it.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Ratio) -> Ratio {
        self.try_add(other).expect("Ratio::add overflowed")
    }

    /// Checked [`Ratio::add`].
    pub fn try_add(self, other: Ratio) -> Result<Ratio, SimError> {
        // Each cross-product fits u128, but their *sum* can reach
        // ~2^129 — checked_add, not `+`.
        let num = (self.num as u128 * other.den as u128)
            .checked_add(other.num as u128 * self.den as u128)
            .ok_or(SimError::Overflow { op: "Ratio::add" })?;
        let den = self.den as u128 * other.den as u128;
        ratio_from_u128(num, den, "Ratio::add")
    }

    /// Exact difference.
    ///
    /// # Panics
    /// Panics if the result would be negative (a contract violation),
    /// or if the reduced result does not fit `u64/u64` — use
    /// [`Ratio::try_sub`] for the latter.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Ratio) -> Ratio {
        self.try_sub(other).expect("Ratio::sub overflowed")
    }

    /// Checked [`Ratio::sub`]. Still panics when the result would be
    /// negative.
    pub fn try_sub(self, other: Ratio) -> Result<Ratio, SimError> {
        let a = self.num as u128 * other.den as u128;
        let b = other.num as u128 * self.den as u128;
        assert!(a >= b, "Ratio::sub would be negative");
        let den = self.den as u128 * other.den as u128;
        ratio_from_u128(a - b, den, "Ratio::sub")
    }

    /// Exact product.
    ///
    /// # Panics
    /// Panics if the reduced result does not fit `u64/u64`; use
    /// [`Ratio::try_mul`] to handle it.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Ratio) -> Ratio {
        self.try_mul(other).expect("Ratio::mul overflowed")
    }

    /// Checked [`Ratio::mul`].
    pub fn try_mul(self, other: Ratio) -> Result<Ratio, SimError> {
        let num = self.num as u128 * other.num as u128;
        let den = self.den as u128 * other.den as u128;
        ratio_from_u128(num, den, "Ratio::mul")
    }

    /// Approximate value as `f64` (for reporting only — never used in
    /// constraint checks).
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Is this ratio ≤ `a/b` (exact)?
    pub fn le_frac(self, a: u64, b: u64) -> bool {
        assert!(b != 0);
        (self.num as u128) * (b as u128) <= (a as u128) * (self.den as u128)
    }
}

fn gcd128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Narrow a `u128` intermediate back to `u64`, surfacing overflow as a
/// typed error instead of the silent truncation an `as` cast would do.
fn u128_to_u64(v: u128, op: &'static str) -> Result<u64, SimError> {
    u64::try_from(v).map_err(|_| SimError::Overflow { op })
}

/// Reduce `num/den` (u128 intermediates) back into a `Ratio`,
/// surfacing results that do not fit `u64/u64` as a typed error.
fn ratio_from_u128(num: u128, den: u128, op: &'static str) -> Result<Ratio, SimError> {
    debug_assert!(den != 0);
    if num == 0 {
        return Ok(Ratio::ZERO);
    }
    let g = gcd128(num, den);
    match (u64::try_from(num / g), u64::try_from(den / g)) {
        (Ok(num), Ok(den)) => Ok(Ratio { num, den }),
        _ => Err(SimError::Overflow { op }),
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.num as u128 * other.den as u128;
        let b = other.num as u128 * self.den as u128;
        a.cmp(&b)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction() {
        assert_eq!(Ratio::new(6, 10), Ratio::new(3, 5));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
        assert_eq!(Ratio::new(7, 7), Ratio::ONE);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn half_plus_eps() {
        // 1/2 + 1/10 = 3/5
        assert_eq!(Ratio::half_plus(Ratio::new(1, 10)), Ratio::new(3, 5));
        // 1/2 + 1/4 = 3/4
        assert_eq!(Ratio::half_plus(Ratio::new(1, 4)), Ratio::new(3, 4));
    }

    #[test]
    fn floor_and_ceil_mul() {
        let r = Ratio::new(3, 5);
        assert_eq!(r.floor_mul(10), 6);
        assert_eq!(r.ceil_mul(10), 6);
        assert_eq!(r.floor_mul(7), 4); // 21/5 = 4.2
        assert_eq!(r.ceil_mul(7), 5);
        assert_eq!(r.floor_mul(0), 0);
    }

    #[test]
    fn inverse_ceilings() {
        // ⌈1/r⌉ ≤ 2 for r > 1/2 — the paper's Remark after Def. 3.2
        assert_eq!(Ratio::new(3, 5).ceil_inv(), 2);
        assert_eq!(Ratio::new(1, 2).ceil_inv(), 2);
        assert_eq!(Ratio::new(2, 3).ceil_inv(), 2);
        assert_eq!(Ratio::new(1, 3).ceil_inv(), 3);
        assert_eq!(Ratio::ONE.ceil_inv(), 1);
        // ⌈k/r⌉
        assert_eq!(Ratio::new(3, 5).ceil_div_int(9), 15);
        assert_eq!(Ratio::new(3, 5).ceil_div_int(10), 17); // 50/3 = 16.67
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a.add(b), Ratio::new(1, 2));
        assert_eq!(a.sub(b), Ratio::new(1, 6));
        assert_eq!(a.mul(b), Ratio::new(1, 18));
        assert_eq!(a.sub(a), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_sub_panics() {
        Ratio::new(1, 6).sub(Ratio::new(1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 2) < Ratio::new(3, 5));
        assert!(Ratio::new(2, 4) == Ratio::new(1, 2));
        assert!(Ratio::new(99, 100) < Ratio::ONE);
        assert!(Ratio::new(1, 3).le_frac(1, 3));
    }

    #[test]
    fn no_overflow_on_large_times() {
        // times up to 10^12 with denominators up to 10^6
        let r = Ratio::new(999_999, 1_000_000);
        assert_eq!(r.floor_mul(1_000_000_000_000), 999_999_000_000);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(3, 5).to_string(), "3/5");
    }

    #[test]
    fn try_ops_surface_overflow_as_typed_errors() {
        let big = Ratio::new(u64::MAX, 1);
        assert!(matches!(
            big.try_floor_mul(u64::MAX),
            Err(SimError::Overflow {
                op: "Ratio::floor_mul"
            })
        ));
        assert!(matches!(
            big.try_ceil_mul(u64::MAX),
            Err(SimError::Overflow {
                op: "Ratio::ceil_mul"
            })
        ));
        let tiny = Ratio::new(1, u64::MAX);
        assert!(matches!(
            tiny.try_ceil_div_int(u64::MAX),
            Err(SimError::Overflow {
                op: "Ratio::ceil_div_int"
            })
        ));
        // 2^64−1 and 2^64−3 are coprime (both odd, differ by 2), so
        // neither the product denominator nor the 1/2+eps numerator
        // below can reduce back into u64 range.
        let a = Ratio::new(1, u64::MAX);
        let b = Ratio::new(1, u64::MAX - 2);
        assert!(matches!(a.try_mul(b), Err(SimError::Overflow { .. })));
        assert!(matches!(a.try_add(b), Err(SimError::Overflow { .. })));
        assert!(matches!(
            Ratio::try_half_plus(a),
            Err(SimError::Overflow { .. })
        ));
        assert!(matches!(big.try_sub(a), Err(SimError::Overflow { .. })));
    }

    #[test]
    fn try_ops_match_infallible_ops_in_range() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a.try_add(b).unwrap(), a.add(b));
        assert_eq!(a.try_sub(b).unwrap(), a.sub(b));
        assert_eq!(a.try_mul(b).unwrap(), a.mul(b));
        assert_eq!(a.try_floor_mul(10).unwrap(), a.floor_mul(10));
        assert_eq!(a.try_ceil_mul(10).unwrap(), a.ceil_mul(10));
        assert_eq!(a.try_ceil_div_int(10).unwrap(), a.ceil_div_int(10));
        assert_eq!(Ratio::try_half_plus(b).unwrap(), Ratio::half_plus(b));
    }

    mod overflow_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Checked floor/ceil multiplication is exact wherever the
            /// result fits and errs exactly where it does not —
            /// operands drawn up to `u64::MAX`.
            #[test]
            fn floor_ceil_mul_exact_near_u64_max(
                num in 1u64..=u64::MAX,
                den in 1u64..=u64::MAX,
                k in (u64::MAX - (1 << 22))..=u64::MAX,
            ) {
                let r = Ratio::new(num, den);
                let p = r.num() as u128 * k as u128;
                let floor = p / r.den() as u128;
                let ceil = p.div_ceil(r.den() as u128);
                match r.try_floor_mul(k) {
                    Ok(v) => prop_assert_eq!(v as u128, floor),
                    Err(SimError::Overflow { .. }) => {
                        prop_assert!(floor > u64::MAX as u128)
                    }
                    Err(e) => {
                        return Err(TestCaseError::fail(format!("unexpected error: {e}")))
                    }
                }
                match r.try_ceil_mul(k) {
                    Ok(v) => prop_assert_eq!(v as u128, ceil),
                    Err(SimError::Overflow { .. }) => {
                        prop_assert!(ceil > u64::MAX as u128)
                    }
                    Err(e) => {
                        return Err(TestCaseError::fail(format!("unexpected error: {e}")))
                    }
                }
            }

            /// try_add / try_sub / try_mul never panic on arbitrary
            /// u64-range operands, return lowest-terms results, and
            /// (a+b)−a round-trips back to b when everything fits.
            #[test]
            fn arithmetic_total_near_u64_max(
                an in 1u64..=u64::MAX,
                ad in 1u64..=u64::MAX,
                bn in 1u64..=u64::MAX,
                bd in 1u64..=u64::MAX,
            ) {
                let a = Ratio::new(an, ad);
                let b = Ratio::new(bn, bd);
                if let Ok(c) = a.try_mul(b) {
                    prop_assert_eq!(c, Ratio::new(c.num(), c.den()));
                }
                if let Ok(c) = a.try_add(b) {
                    prop_assert_eq!(c, Ratio::new(c.num(), c.den()));
                    // c − a = b exactly, and b fits by construction,
                    // so the checked subtraction must succeed.
                    prop_assert_eq!(c.try_sub(a).unwrap(), b);
                    prop_assert_eq!(c.try_sub(b).unwrap(), a);
                }
            }
        }
    }
}
