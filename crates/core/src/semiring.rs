//! Closed semirings and rings.
//!
//! Sect. III-E of the paper states the rectangular matrix-multiplication
//! algorithms over a closed semiring `SR = (S, ⊕, ⊗, 0, 1)`; Strassen's
//! algorithm (Sect. III-F) additionally requires an inverse of addition, i.e. a
//! ring.  The traits here capture exactly that split:
//!
//! * [`Semiring`] — the element supports `⊕` (associative, commutative, with
//!   identity [`Semiring::zero`]) and `⊗` (associative, with identity
//!   [`Semiring::one`], distributing over `⊕`).  Classic matrix multiplication
//!   ([`crate::matrix`], `paco-matmul`) only needs this.
//! * [`Ring`] — a semiring whose addition has inverses, enabling Strassen.
//!
//! Provided instances:
//!
//! * `f64` / `f32` — the usual arithmetic ring (the paper's `dgemm` experiments).
//! * [`WrappingRing`] — `u64` with wrapping add/mul: an exact ring used by the
//!   test-suite to check Strassen and the PACO partitionings bit-for-bit against
//!   the reference algorithm without floating-point tolerance.
//! * [`MinPlus`] / [`MaxPlus`] — tropical semirings (shortest/longest paths,
//!   dynamic programming on a semiring).
//! * [`BoolSemiring`] — the boolean (∨, ∧) semiring (transitive closure).
//! * [`Viterbi`] — the (max, ×) semiring over non-negative likelihoods
//!   (most-probable paths).
//! * [`Bottleneck`] — the (max, min) semiring (widest-path / capacity
//!   closure).
//! * [`CountMod`] — path counting (+, ×) over ℤ/Mℤ; *not* idempotent, but an
//!   exact [`Ring`], so it runs through the classic-MM and Strassen paths.

use std::fmt::Debug;

/// A closed semiring element.
///
/// Laws (checked by property tests in `tests/` and `paco-matmul`):
/// `add` is associative and commutative with identity `zero`;
/// `mul` is associative with identity `one` and annihilator `zero`;
/// `mul` distributes over `add`.
///
/// The [`SpecializedKernel`](crate::kernel::SpecializedKernel) supertrait is
/// the (sealed) leaf fast-path hook: the matmul/graph leaf kernels consult it
/// before falling back to the generic `mul_add` loops.
pub trait Semiring:
    crate::kernel::SpecializedKernel + Copy + Send + Sync + PartialEq + Debug + 'static
{
    /// Additive identity (`0`).
    fn zero() -> Self;
    /// Multiplicative identity (`1`).
    fn one() -> Self;
    /// Semiring addition `⊕`.
    fn add(self, rhs: Self) -> Self;
    /// Semiring multiplication `⊗`.
    fn mul(self, rhs: Self) -> Self;

    /// Fused multiply-accumulate `self ⊕ (a ⊗ b)`; the inner-loop operation of
    /// every matrix-multiplication kernel.  Override when a faster fused form
    /// exists.
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }
}

/// Marker trait for semirings whose addition is idempotent: `a ⊕ a = a`.
///
/// The tropical semirings (`min`/`max` absorb duplicates) and the boolean
/// semiring (`∨` absorbs duplicates) qualify; ordinary arithmetic rings do
/// not.  In-place path-closure algorithms — Floyd–Warshall in `paco-graph` —
/// relax the same entries repeatedly and are only correct when duplicate
/// contributions are absorbing, so they bound their element type on this
/// trait and a non-idempotent instantiation fails to compile instead of
/// silently computing garbage.
pub trait IdempotentSemiring: Semiring {}

impl IdempotentSemiring for MinPlus {}
impl IdempotentSemiring for MaxPlus {}
impl IdempotentSemiring for BoolSemiring {}
impl IdempotentSemiring for Viterbi {}
impl IdempotentSemiring for Bottleneck {}
// `CountMod` is deliberately *not* idempotent: `a + a = 2a mod M ≠ a` in
// general, so the in-place closure algorithms reject it at compile time.

/// A semiring with additive inverses (a ring), as required by Strassen.
pub trait Ring: Semiring {
    /// Ring subtraction `⊖`.
    fn sub(self, rhs: Self) -> Self;
    /// Additive inverse.
    #[inline]
    fn neg(self) -> Self {
        Self::zero().sub(self)
    }
}

/// Marker trait for ordinary numeric types where `Semiring` coincides with the
/// usual arithmetic operations; lets generic code ask for "a real number-like
/// ring" (e.g. the vendor-baseline MM which uses explicit `f64` FMA loops).
pub trait Numeric: Ring + PartialOrd {
    /// Conversion from a small integer, used by workload generators.
    fn from_i32(v: i32) -> Self;
    /// Conversion to `f64` for error measurement in tests.
    fn to_f64(self) -> f64;
}

impl Semiring for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }
}

impl Ring for f64 {
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
}

impl Numeric for f64 {
    #[inline]
    fn from_i32(v: i32) -> Self {
        v as f64
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Semiring for f32 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }
}

impl Ring for f32 {
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
}

impl Numeric for f32 {
    #[inline]
    fn from_i32(v: i32) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// `u64` with wrapping arithmetic: an exact commutative ring (ℤ / 2⁶⁴ℤ).
///
/// Used heavily in tests because every algorithm variant — including Strassen,
/// which subtracts — must agree *exactly* with the reference triple loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct WrappingRing(pub u64);

impl Semiring for WrappingRing {
    #[inline]
    fn zero() -> Self {
        WrappingRing(0)
    }
    #[inline]
    fn one() -> Self {
        WrappingRing(1)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        WrappingRing(self.0.wrapping_add(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        WrappingRing(self.0.wrapping_mul(rhs.0))
    }
}

impl Ring for WrappingRing {
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        WrappingRing(self.0.wrapping_sub(rhs.0))
    }
}

/// Tropical (min, +) semiring over `f64`: `⊕ = min`, `⊗ = +`, `0 = +∞`, `1 = 0`.
///
/// Matrix "multiplication" over [`MinPlus`] computes all-pairs shortest-path
/// relaxation steps; it exercises the semiring-generic code paths of
/// `paco-matmul` with a non-invertible addition.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
#[repr(transparent)]
pub struct MinPlus(pub f64);

// `repr(transparent)` lets the SIMD leaves read `MinPlus` rows as `f64`
// lanes and boolean rows as bytes; these asserts pin the layouts they cast.
const _: () = assert!(
    std::mem::size_of::<MinPlus>() == std::mem::size_of::<f64>()
        && std::mem::align_of::<MinPlus>() == std::mem::align_of::<f64>()
);
const _: () =
    assert!(std::mem::size_of::<BoolSemiring>() == 1 && std::mem::align_of::<BoolSemiring>() == 1);

impl Semiring for MinPlus {
    #[inline]
    fn zero() -> Self {
        MinPlus(f64::INFINITY)
    }
    #[inline]
    fn one() -> Self {
        MinPlus(0.0)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        MinPlus(self.0.min(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        MinPlus(self.0 + rhs.0)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Fused min-of-sum: one branch-free `min` instead of a constructed
        // intermediate — the form the FW leaf loops compile down to.
        MinPlus(self.0.min(a.0 + b.0))
    }
}

/// Tropical (max, +) semiring over `f64`: `⊕ = max`, `⊗ = +`, `0 = −∞`, `1 = 0`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MaxPlus(pub f64);

impl Semiring for MaxPlus {
    #[inline]
    fn zero() -> Self {
        MaxPlus(f64::NEG_INFINITY)
    }
    #[inline]
    fn one() -> Self {
        MaxPlus(0.0)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        MaxPlus(self.0.max(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        MaxPlus(self.0 + rhs.0)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        MaxPlus(self.0.max(a.0 + b.0))
    }
}

/// The boolean semiring (∨, ∧): matrix multiplication computes reachability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[repr(transparent)]
pub struct BoolSemiring(pub bool);

impl Semiring for BoolSemiring {
    #[inline]
    fn zero() -> Self {
        BoolSemiring(false)
    }
    #[inline]
    fn one() -> Self {
        BoolSemiring(true)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        BoolSemiring(self.0 | rhs.0)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        BoolSemiring(self.0 & rhs.0)
    }
}

/// The Viterbi (max, ×) semiring over **non-negative** likelihoods:
/// `⊕ = max`, `⊗ = ×`, `0 = 0.0`, `1 = 1.0`.
///
/// Matrix closure over [`Viterbi`] computes most-probable paths (each edge
/// carries a transition likelihood, a path's likelihood is the product of
/// its edges).  Distributivity `a ⊗ max(b, c) = max(a⊗b, a⊗c)` needs `⊗` to
/// be monotone, which multiplication only is on non-negative operands — the
/// laws (and the kernels) therefore assume elements in `[0, ∞)`; keeping
/// likelihoods in `[0, 1]` additionally makes every cycle non-improving, so
/// closures converge.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Viterbi(pub f64);

impl Semiring for Viterbi {
    #[inline]
    fn zero() -> Self {
        Viterbi(0.0)
    }
    #[inline]
    fn one() -> Self {
        Viterbi(1.0)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Viterbi(self.0.max(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Viterbi(self.0 * rhs.0)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Viterbi(self.0.max(a.0 * b.0))
    }
}

/// The bottleneck (max, min) semiring: `⊕ = max`, `⊗ = min`, `0 = −∞`,
/// `1 = +∞`.
///
/// Matrix closure over [`Bottleneck`] computes widest paths: a path's value
/// is its narrowest edge (the capacity bottleneck) and `⊕` keeps the widest
/// alternative.  Both operations are selections over a total order, so every
/// algorithm variant is bit-exact — no floating-point slack anywhere.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Bottleneck(pub f64);

impl Semiring for Bottleneck {
    #[inline]
    fn zero() -> Self {
        Bottleneck(f64::NEG_INFINITY)
    }
    #[inline]
    fn one() -> Self {
        Bottleneck(f64::INFINITY)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Bottleneck(self.0.max(rhs.0))
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Bottleneck(self.0.min(rhs.0))
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Bottleneck(self.0.max(a.0.min(b.0)))
    }
}

/// Path counting over ℤ/Mℤ: `⊕ = + mod M`, `⊗ = × mod M`, for a compile-time
/// modulus `M ≥ 1`.
///
/// Matrix powers over [`CountMod`] count walks by length modulo `M` — the
/// classic "number of paths" scenario kept exact by reducing eagerly.  It is
/// a full (commutative) [`Ring`], so it also runs through Strassen, and it is
/// **not** idempotent (`a ⊕ a = 2a`), so the closure entry points reject it
/// at compile time via the missing [`IdempotentSemiring`] marker.
///
/// The stored value is kept reduced (`< M`) by every constructor and
/// operation; build values with [`CountMod::new`] rather than the raw tuple
/// constructor to preserve that invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct CountMod<const M: u64>(pub u64);

impl<const M: u64> CountMod<M> {
    /// A reduced element of ℤ/Mℤ.
    #[inline]
    pub fn new(v: u64) -> Self {
        CountMod(v % M)
    }
}

impl<const M: u64> Semiring for CountMod<M> {
    #[inline]
    fn zero() -> Self {
        CountMod(0)
    }
    #[inline]
    fn one() -> Self {
        CountMod(1 % M)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // Operands are reduced, so the widened sum cannot overflow.
        CountMod(((self.0 as u128 + rhs.0 as u128) % M as u128) as u64)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        CountMod(((self.0 as u128 * rhs.0 as u128) % M as u128) as u64)
    }
}

impl<const M: u64> Ring for CountMod<M> {
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        CountMod(((M as u128 + self.0 as u128 - rhs.0 as u128) % M as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semiring_axioms<S: Semiring>(vals: &[S]) {
        for &a in vals {
            for &b in vals {
                // commutativity of ⊕
                assert_eq!(a.add(b), b.add(a));
                for &c in vals {
                    // associativity
                    assert_eq!(a.add(b).add(c), a.add(b.add(c)));
                    assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
                    // distributivity
                    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
                    assert_eq!(b.add(c).mul(a), b.mul(a).add(c.mul(a)));
                }
            }
            // identities
            assert_eq!(a.add(S::zero()), a);
            assert_eq!(a.mul(S::one()), a);
            assert_eq!(S::one().mul(a), a);
            // annihilation
            assert_eq!(a.mul(S::zero()), S::zero());
            assert_eq!(S::zero().mul(a), S::zero());
        }
    }

    #[test]
    fn wrapping_ring_axioms() {
        let vals: Vec<WrappingRing> = [0u64, 1, 2, 7, u64::MAX, u64::MAX - 3, 12345]
            .iter()
            .map(|&v| WrappingRing(v))
            .collect();
        semiring_axioms(&vals);
        // ring: a - a == 0
        for &a in &vals {
            assert_eq!(a.sub(a), WrappingRing::zero());
            assert_eq!(a.add(a.neg()), WrappingRing::zero());
        }
    }

    #[test]
    fn bool_semiring_axioms() {
        semiring_axioms(&[BoolSemiring(false), BoolSemiring(true)]);
    }

    #[test]
    fn idempotent_markers_are_actually_idempotent() {
        fn check<S: IdempotentSemiring>(vals: &[S]) {
            for &a in vals {
                assert_eq!(a.add(a), a);
            }
        }
        check(&[MinPlus(0.0), MinPlus(3.5), MinPlus(-1.0), MinPlus::zero()]);
        check(&[MaxPlus(-2.0), MaxPlus(7.0), MaxPlus::zero()]);
        check(&[BoolSemiring(false), BoolSemiring(true)]);
        check(&[Viterbi(0.25), Viterbi(1.0), Viterbi::zero(), Viterbi::one()]);
        check(&[
            Bottleneck(3.0),
            Bottleneck(-1.0),
            Bottleneck::zero(),
            Bottleneck::one(),
        ]);
    }

    #[test]
    fn viterbi_axioms_on_nonnegative_values() {
        let vals: Vec<Viterbi> = [0.0, 0.125, 0.5, 1.0, 2.0]
            .iter()
            .map(|&v| Viterbi(v))
            .collect();
        // Power-of-two likelihoods: products are exact, so the full axiom
        // battery (incl. distributivity) holds bit-for-bit.
        semiring_axioms(&vals);
    }

    #[test]
    fn bottleneck_axioms() {
        let vals: Vec<Bottleneck> = [f64::NEG_INFINITY, -2.0, 0.0, 5.5, f64::INFINITY]
            .iter()
            .map(|&v| Bottleneck(v))
            .collect();
        semiring_axioms(&vals);
    }

    #[test]
    fn count_mod_axioms_and_ring_laws() {
        let vals: Vec<CountMod<7>> = (0..7).map(CountMod::<7>::new).collect();
        semiring_axioms(&vals);
        for &a in &vals {
            assert_eq!(a.sub(a), CountMod::zero());
            assert_eq!(a.add(a.neg()), CountMod::zero());
            assert!(a.0 < 7, "values stay reduced");
        }
        // Degenerate modulus: ℤ/1ℤ collapses to the zero ring.
        assert_eq!(CountMod::<1>::one(), CountMod::<1>::zero());
        assert_eq!(CountMod::<1>::new(42), CountMod::<1>::zero());
    }

    #[test]
    fn min_plus_axioms_on_finite_values() {
        let vals: Vec<MinPlus> = [0.0, 1.0, 2.5, 10.0, -3.0]
            .iter()
            .map(|&v| MinPlus(v))
            .collect();
        // identities involving ±∞ need care with equality; check only finite ones
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a.add(b), b.add(a));
                assert_eq!(a.mul(b).0, a.0 + b.0);
            }
            assert_eq!(a.add(MinPlus::zero()), a);
            assert_eq!(a.mul(MinPlus::one()), a);
        }
    }

    #[test]
    fn max_plus_behaviour() {
        let a = MaxPlus(3.0);
        let b = MaxPlus(5.0);
        assert_eq!(a.add(b), MaxPlus(5.0));
        assert_eq!(a.mul(b), MaxPlus(8.0));
        assert_eq!(a.add(MaxPlus::zero()), a);
    }

    #[test]
    fn float_mul_add_matches() {
        let acc = 2.0f64;
        assert!((Semiring::mul_add(acc, 3.0, 4.0) - 14.0).abs() < 1e-12);
        let acc = 2.0f32;
        assert!((Semiring::mul_add(acc, 3.0, 4.0) - 14.0).abs() < 1e-6);
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(<f64 as Numeric>::from_i32(-7), -7.0);
        assert_eq!(Numeric::to_f64(3.5f32), 3.5);
    }
}
