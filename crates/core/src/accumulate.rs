//! Accumulating the side spectra into the reliability (Section IV).
//!
//! For every availability configuration `E'' ⊆ E*` of the bottleneck links
//! (probability `p_{E''}`, Eq. 2), the assignments supported by `E''`
//! (Definition 1) are the only ways sub-streams can cross. The conditional
//! reliability is
//!
//! `r_{E''} = P(∃ b ∈ D_{E''} : side-s realizes b ∧ side-t realizes b)`
//!
//! and the two sides are independent, so for any subset `X ⊆ D_{E''}`,
//! `P(both sides realize all of X) = P_s(X) · P_t(X)` — the key fact behind
//! procedure ACCUMULATION. The overall reliability is
//! `R = Σ_{E''} p_{E''} · r_{E''}` (Eq. 3).
//!
//! Three algebraically identical evaluations of `r_{E''}` are provided:
//!
//! * [`AccumulationMethod::PaperDirect`] — the paper's procedure verbatim:
//!   for each subset `X`, compute `p_X` by scanning the masses, then apply
//!   inclusion–exclusion. `O(4^{|D|})` per bottleneck configuration.
//! * [`AccumulationMethod::ZetaInclusionExclusion`] — precompute all
//!   superset sums with one zeta transform (`O(|D|·2^{|D|})`), then the same
//!   inclusion–exclusion reads them off.
//! * [`AccumulationMethod::Complement`] — rewrite
//!   `r_{E''} = Σ_m mass_s[m] · (T_t − q_t[m ∩ D_{E''}])` where
//!   `q_t[S] = P(side t realizes nothing in S)`; no alternating signs, which
//!   is the numerically gentlest form.
//!
//! The engines hold sparse [`MaskMass`] spectra and call
//! [`combine_spectra`], which for the `Complement` method picks, by an
//! automatic size test, between pairing the realized masks directly
//! (`O(nnz_s · nnz_t)` per configuration, no `2^{|D|}` term at all) and the
//! subset-sum form on one dense buffer built from the sink spectrum.
//! [`combine`] is the dense-vector entry point to the same evaluations.

use crate::spectrum::MaskMass;
use crate::weight::Weight;

/// Which evaluation of procedure ACCUMULATION to use. All three return the
/// same value (property-tested); they differ in cost and numerical style.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AccumulationMethod {
    /// The paper's direct per-subset scan.
    PaperDirect,
    /// Zeta-transform (superset sums) + inclusion–exclusion.
    ZetaInclusionExclusion,
    /// Complement identity, subtraction-free inner loop.
    #[default]
    Complement,
}

/// Probability of bottleneck availability configuration `links_up`
/// (bit `i` set = link `e_i` is up) — Eq. 2.
pub fn cut_config_weight<W: Weight>(cut_weights: &[(W, W)], links_up: u32) -> W {
    let mut p = W::one();
    for (i, w) in cut_weights.iter().enumerate() {
        p = p.mul(if links_up >> i & 1 == 1 { &w.0 } else { &w.1 });
    }
    p
}

/// In-place superset-sum (zeta) transform:
/// `f[X] ← Σ_{m ⊇ X} f[m]`.
pub fn superset_sums<W: Weight>(f: &mut [W], bits: usize) {
    debug_assert_eq!(f.len(), 1 << bits);
    for i in 0..bits {
        for x in 0..f.len() {
            if x & (1 << i) == 0 {
                let hi = f[x | 1 << i].clone();
                f[x] = f[x].add(&hi);
            }
        }
    }
}

/// In-place subset-sum (zeta) transform:
/// `f[X] ← Σ_{m ⊆ X} f[m]`.
pub fn subset_sums<W: Weight>(f: &mut [W], bits: usize) {
    debug_assert_eq!(f.len(), 1 << bits);
    for i in 0..bits {
        for x in 0..f.len() {
            if x & (1 << i) != 0 {
                let lo = f[x ^ (1 << i)].clone();
                f[x] = f[x].add(&lo);
            }
        }
    }
}

/// `r_{E''}` by the paper's direct procedure: scan the masses for every
/// subset `X` of the supported set.
fn r_direct<W: Weight>(supported: u32, mass_s: &[W], mass_t: &[W]) -> W {
    let mut r = W::zero();
    if supported == 0 {
        return r;
    }
    // iterate nonempty submasks X of `supported`
    let mut x = supported;
    loop {
        let p_s = mass_superset_scan(mass_s, x);
        let p_t = mass_superset_scan(mass_t, x);
        let term = p_s.mul(&p_t);
        if (x.count_ones() & 1) == 1 {
            r = r.add(&term);
        } else {
            r = r.sub(&term);
        }
        x = (x - 1) & supported;
        if x == 0 {
            break;
        }
    }
    r
}

/// `Σ { mass[m] : m ⊇ x }` by direct scan (the paper's Step 1).
fn mass_superset_scan<W: Weight>(mass: &[W], x: u32) -> W {
    let mut p = W::zero();
    for (m, w) in mass.iter().enumerate() {
        if m as u32 & x == x {
            p = p.add(w);
        }
    }
    p
}

/// `r_{E''}` from precomputed superset sums.
fn r_zeta<W: Weight>(supported: u32, sup_s: &[W], sup_t: &[W]) -> W {
    let mut r = W::zero();
    if supported == 0 {
        return r;
    }
    let mut x = supported;
    loop {
        let term = sup_s[x as usize].mul(&sup_t[x as usize]);
        if (x.count_ones() & 1) == 1 {
            r = r.add(&term);
        } else {
            r = r.sub(&term);
        }
        x = (x - 1) & supported;
        if x == 0 {
            break;
        }
    }
    r
}

/// `r_{E''}` by the complement identity, given the subset sums of the sink
/// spectrum, `sub_t[X] = Σ { mass_t[m] : m ⊆ X }`: side t realizes nothing
/// in `S` with probability `sub_t[¬S]`, so a source mask `m` hits with
/// probability `T_t − sub_t[¬(m ∩ D_{E''})]`. `mass_s` runs in ascending
/// mask order.
fn r_complement<'a, W: Weight + 'a>(
    supported: u32,
    mass_s: impl Iterator<Item = (u32, &'a W)>,
    sub_t: &[W],
) -> W {
    let full = sub_t.len() - 1;
    let total_t = &sub_t[full];
    let mut r = W::zero();
    for (m, w) in mass_s {
        if w.is_zero() {
            continue;
        }
        let s = m & supported;
        if s == 0 {
            continue; // side s realizes nothing usable: contributes 0
        }
        let hit = total_t.sub(&sub_t[full & !(s as usize)]);
        r = r.add(&w.mul(&hit));
    }
    r
}

/// `r_{E''}` by pairing the realized masks directly: a source mask `m_s`
/// hits with the total sink mass whose masks share a supported assignment
/// with it. Subtraction-free, and no `2^{|D|}` term at all.
fn r_paired<W: Weight>(supported: u32, mass_s: &MaskMass<W>, mass_t: &MaskMass<W>) -> W {
    let mut r = W::zero();
    for (ms, ws) in mass_s.iter() {
        let x = ms & supported;
        if x == 0 {
            continue;
        }
        let mut hit = W::zero();
        for (mt, wt) in mass_t.iter() {
            if mt & x != 0 {
                hit = hit.add(wt);
            }
        }
        if !hit.is_zero() {
            r = r.add(&ws.mul(&hit));
        }
    }
    r
}

/// `Σ_{E''} p_{E''} · r(D_{E''})` over the bottleneck configurations with a
/// nonempty supported set (Eq. 3).
fn sum_over_cut_configs<W: Weight>(
    cut_weights: &[(W, W)],
    support: &[u32],
    mut r_of: impl FnMut(u32) -> W,
) -> W {
    assert_eq!(
        support.len(),
        1 << cut_weights.len(),
        "one supported-set mask per cut configuration"
    );
    let mut total = W::zero();
    for (links_up, &supported) in support.iter().enumerate() {
        if supported == 0 {
            continue;
        }
        let r = r_of(supported);
        if !r.is_zero() {
            total = total.add(&cut_config_weight(cut_weights, links_up as u32).mul(&r));
        }
    }
    total
}

/// Combines the two side spectra and the bottleneck-link probabilities into
/// the reliability (Eq. 3 over all `E'' ⊆ E*`).
///
/// * `cut_weights[i]` — `(1 − p(e_i), p(e_i))` of bottleneck link `i`;
/// * `support[E'']` — assignment-index mask of `D_{E''}` for every of the
///   `2^k` bottleneck configurations (see
///   [`crate::assign::supported_assignment_masks`]);
/// * `mass_s`, `mass_t` — the side spectra as dense vectors over the
///   `2^|D|` realization masks. `Complement` keeps only their nonzero
///   entries and evaluates through [`combine_spectra`], as the engines do.
pub fn combine<W: Weight>(
    cut_weights: &[(W, W)],
    support: &[u32],
    mass_s: &[W],
    mass_t: &[W],
    assign_count: usize,
    method: AccumulationMethod,
) -> W {
    assert_eq!(mass_s.len(), 1 << assign_count);
    assert_eq!(mass_t.len(), 1 << assign_count);
    match method {
        AccumulationMethod::PaperDirect => {
            sum_over_cut_configs(cut_weights, support, |sup| r_direct(sup, mass_s, mass_t))
        }
        AccumulationMethod::ZetaInclusionExclusion => {
            let mut sup_s = mass_s.to_vec();
            let mut sup_t = mass_t.to_vec();
            superset_sums(&mut sup_s, assign_count);
            superset_sums(&mut sup_t, assign_count);
            sum_over_cut_configs(cut_weights, support, |sup| r_zeta(sup, &sup_s, &sup_t))
        }
        AccumulationMethod::Complement => combine_spectra(
            cut_weights,
            support,
            &MaskMass::from_dense(mass_s),
            &MaskMass::from_dense(mass_t),
            method,
        ),
    }
}

/// Which evaluation [`combine_spectra`] runs for the `Complement` method.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SparsePath {
    /// Pair the realized masks directly: `nnz_s · nnz_t` per configuration.
    Paired,
    /// Subset sums over one dense `2^|D|` buffer built from the sink
    /// spectrum, then one lookup per realized source mask.
    SubsetSums,
}

/// The size test of [`combine_spectra`].
pub(crate) fn sparse_path(
    configs: usize,
    nnz_s: usize,
    nnz_t: usize,
    assign_count: usize,
) -> SparsePath {
    let paired = nnz_s as f64 * nnz_t as f64 * configs as f64;
    let dense = assign_count as f64 * (assign_count as f64).exp2() + nnz_s as f64 * configs as f64;
    if paired < dense {
        SparsePath::Paired
    } else {
        SparsePath::SubsetSums
    }
}

/// [`combine`] over sparse spectra. For [`AccumulationMethod::Complement`]
/// the evaluation runs over the realized masks in ascending order on one of
/// two paths, picked by a size test: pairing the realized masks directly
/// when `nnz_s · nnz_t · configs` is below the subset-sum cost
/// `|D| · 2^|D| + nnz_s · configs` (`configs` = bottleneck configurations
/// with a nonempty supported set), otherwise subset sums over one dense
/// buffer built from the sink spectrum. The subset-sum path is term for term
/// the dense complement evaluation; the paired path returns the same value
/// up to rounding (exactly, for exact weights). The other methods are
/// oracles: they densify and run [`combine`].
pub fn combine_spectra<W: Weight>(
    cut_weights: &[(W, W)],
    support: &[u32],
    mass_s: &MaskMass<W>,
    mass_t: &MaskMass<W>,
    method: AccumulationMethod,
) -> W {
    assert_eq!(
        mass_s.bits(),
        mass_t.bits(),
        "side spectra over different |D|"
    );
    if method != AccumulationMethod::Complement {
        let (s, t) = (mass_s.to_dense(), mass_t.to_dense());
        return combine(cut_weights, support, &s, &t, mass_s.bits(), method);
    }
    let configs = support.iter().filter(|&&m| m != 0).count();
    let path = sparse_path(configs, mass_s.nnz(), mass_t.nnz(), mass_s.bits());
    combine_on_path(cut_weights, support, mass_s, mass_t, path)
}

/// The `Complement` evaluation of [`combine_spectra`] on a given path.
pub(crate) fn combine_on_path<W: Weight>(
    cut_weights: &[(W, W)],
    support: &[u32],
    mass_s: &MaskMass<W>,
    mass_t: &MaskMass<W>,
    path: SparsePath,
) -> W {
    match path {
        SparsePath::Paired => {
            sum_over_cut_configs(cut_weights, support, |sup| r_paired(sup, mass_s, mass_t))
        }
        SparsePath::SubsetSums => {
            let mut sub_t = mass_t.to_dense();
            subset_sums(&mut sub_t, mass_t.bits());
            sum_over_cut_configs(cut_weights, support, |sup| {
                r_complement(sup, mass_s.iter(), &sub_t)
            })
        }
    }
}

/// Rigorous `[R_low, R_high]` around the reliability when the two side
/// spectra are only *partially* swept.
///
/// `mass_s` / `mass_t` hold the mass of the configurations examined so far,
/// so each sums to its side's explored probability; `unexplored_*` is the
/// residual (`1 − Σ mass`). The bounds assign that residual to the two
/// extremes a side configuration can realize:
///
/// * **lower**: unexplored configurations realize *nothing* (mask `0`) —
///   realization events are monotone, and the empty set is below every
///   outcome, so the combined value can only shrink;
/// * **upper**: unexplored configurations realize *every live assignment*
///   (`live_mask_*`) — the spectrum's support is contained in the live mask,
///   so this dominates every possible outcome.
///
/// Both evaluations reuse [`combine_spectra`] on spectra that are again full
/// probability distributions, so the bounds inherit its exactness and stay
/// in `[0, 1]` for probability weights.
#[allow(clippy::too_many_arguments)]
pub fn combine_interval<W: Weight>(
    cut_weights: &[(W, W)],
    support: &[u32],
    mass_s: &MaskMass<W>,
    unexplored_s: &W,
    live_mask_s: u32,
    mass_t: &MaskMass<W>,
    unexplored_t: &W,
    live_mask_t: u32,
    method: AccumulationMethod,
) -> (W, W) {
    let inject = |mass: &MaskMass<W>, u: &W, slot: u32| -> MaskMass<W> {
        let mut v = mass.clone();
        v.add(slot, u);
        v
    };
    let lo = combine_spectra(
        cut_weights,
        support,
        &inject(mass_s, unexplored_s, 0),
        &inject(mass_t, unexplored_t, 0),
        method,
    );
    let hi = combine_spectra(
        cut_weights,
        support,
        &inject(mass_s, unexplored_s, live_mask_s),
        &inject(mass_t, unexplored_t, live_mask_t),
        method,
    );
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactmath::BigRational;

    #[test]
    fn zeta_transforms() {
        // f over 2 bits: f[00]=1, f[01]=2, f[10]=4, f[11]=8
        let mut f = vec![1.0, 2.0, 4.0, 8.0];
        superset_sums(&mut f, 2);
        assert_eq!(f, vec![15.0, 10.0, 12.0, 8.0]);
        let mut g = vec![1.0, 2.0, 4.0, 8.0];
        subset_sums(&mut g, 2);
        assert_eq!(g, vec![1.0, 3.0, 5.0, 15.0]);
    }

    #[test]
    fn cut_weight_is_product() {
        let w = vec![(0.9, 0.1), (0.8, 0.2)];
        assert!((cut_config_weight(&w, 0b11) - 0.72).abs() < 1e-15);
        assert!((cut_config_weight(&w, 0b01) - 0.9 * 0.2).abs() < 1e-15);
        assert!((cut_config_weight(&w, 0b00) - 0.02).abs() < 1e-15);
        let total: f64 = (0..4u32).map(|c| cut_config_weight(&w, c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    /// Example 6 of the paper, verbatim: two assignments b1, b2; side-s
    /// configurations c1..c4 and side-t configurations c5..c8 realizing
    /// the sets of Table I. With all configurations equally likely (prob 1/4
    /// each) the inclusion–exclusion gives
    /// r = p{b1} + p{b2} − p{b1,b2}
    ///   = (p(c1)+p(c3))(p(c5)+p(c7)) + (p(c2)+p(c3)+p(c4))(p(c5)+p(c6))
    ///     − p(c3)p(c5).
    #[test]
    fn example_6_of_the_paper() {
        let q = 0.25f64;
        // masses over assignment masks (bit0 = b1, bit1 = b2)
        // c1 -> {b1}, c2 -> {b2}, c3 -> {b1,b2}, c4 -> {b2}
        let mass_s = vec![0.0, q, 2.0 * q, q]; // [none, {b1}, {b2}, {b1,b2}]
                                               // c5 -> {b1,b2}, c6 -> {b2}, c7 -> {b1}, c8 -> {}
        let mass_t = vec![q, q, q, q];
        let expected = (q + q) * (q + q) + (q + q + q) * (q + q) - q * q;

        // single always-up bottleneck configuration supporting both
        let cut = vec![(1.0, 0.0)];
        let support = vec![0b00u32, 0b11];
        for method in [
            AccumulationMethod::PaperDirect,
            AccumulationMethod::ZetaInclusionExclusion,
            AccumulationMethod::Complement,
        ] {
            let r = combine(&cut, &support, &mass_s, &mass_t, 2, method);
            assert!(
                (r - expected).abs() < 1e-12,
                "{method:?}: {r} vs {expected}"
            );
        }
    }

    #[test]
    fn methods_agree_on_random_masses() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let dn = rng.gen_range(1..=5usize);
            let k = rng.gen_range(1..=3usize);
            let mass_s: Vec<f64> = (0..1 << dn).map(|_| rng.gen::<f64>()).collect();
            let mass_t: Vec<f64> = (0..1 << dn).map(|_| rng.gen::<f64>()).collect();
            let cut: Vec<(f64, f64)> = (0..k)
                .map(|_| {
                    let p = rng.gen::<f64>();
                    (1.0 - p, p)
                })
                .collect();
            let support: Vec<u32> = (0..1u32 << k)
                .map(|_| rng.gen_range(0..1u32 << dn))
                .collect();
            let a = combine(
                &cut,
                &support,
                &mass_s,
                &mass_t,
                dn,
                AccumulationMethod::PaperDirect,
            );
            let b = combine(
                &cut,
                &support,
                &mass_s,
                &mass_t,
                dn,
                AccumulationMethod::ZetaInclusionExclusion,
            );
            let c = combine(
                &cut,
                &support,
                &mass_s,
                &mass_t,
                dn,
                AccumulationMethod::Complement,
            );
            assert!((a - b).abs() < 1e-9, "direct {a} vs zeta {b}");
            assert!((a - c).abs() < 1e-9, "direct {a} vs complement {c}");
        }
    }

    #[test]
    fn exact_weights_work_too() {
        let half = BigRational::from_ratio(1, 2);
        let quarter = BigRational::from_ratio(1, 4);
        let mass_s = vec![
            BigRational::zero(),
            half.clone(),
            quarter.clone(),
            quarter.clone(),
        ];
        let mass_t = mass_s.clone();
        let cut = vec![(
            BigRational::from_ratio(9, 10),
            BigRational::from_ratio(1, 10),
        )];
        let support = vec![0u32, 0b11];
        let a = combine(
            &cut,
            &support,
            &mass_s,
            &mass_t,
            2,
            AccumulationMethod::PaperDirect,
        );
        let b = combine(
            &cut,
            &support,
            &mass_s,
            &mass_t,
            2,
            AccumulationMethod::Complement,
        );
        let c = combine(
            &cut,
            &support,
            &mass_s,
            &mass_t,
            2,
            AccumulationMethod::ZetaInclusionExclusion,
        );
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.is_zero());
    }

    #[test]
    fn interval_collapses_when_fully_explored_and_brackets_otherwise() {
        let q = 0.25f64;
        let mass_s = MaskMass::from_dense(&[0.0, q, 2.0 * q, q]);
        let mass_t = MaskMass::from_dense(&[q, q, q, q]);
        let cut = vec![(0.9, 0.1)];
        let support = vec![0b00u32, 0b11];
        let method = AccumulationMethod::Complement;
        let exact = combine_spectra(&cut, &support, &mass_s, &mass_t, method);
        // fully explored: both bounds equal the exact value
        let (lo, hi) = combine_interval(
            &cut, &support, &mass_s, &0.0, 0b11, &mass_t, &0.0, 0b11, method,
        );
        assert!((lo - exact).abs() < 1e-12 && (hi - exact).abs() < 1e-12);
        // withhold one side-s configuration's mass (c3 -> {b1,b2}, mass q)
        let part_s = MaskMass::from_dense(&[0.0, q, 2.0 * q, 0.0]);
        let (lo, hi) = combine_interval(
            &cut, &support, &part_s, &q, 0b11, &mass_t, &0.0, 0b11, method,
        );
        assert!(lo <= exact + 1e-12, "{lo} <= {exact}");
        assert!(exact <= hi + 1e-12, "{exact} <= {hi}");
        assert!(hi - lo > 1e-9, "interval must be nondegenerate here");
    }

    /// A random spectrum over `dn` assignments with about `density` of its
    /// masks realized, as a dense vector of probability-like masses.
    fn random_dense<R: rand::Rng>(rng: &mut R, dn: usize, density: f64) -> Vec<f64> {
        (0..1usize << dn)
            .map(|_| {
                if rng.gen_bool(density) {
                    // dyadic, so the exact conversion below is lossless
                    rng.gen_range(1..=64u32) as f64 / 64.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn random_cut<R: rand::Rng>(rng: &mut R, k: usize, dn: usize) -> (Vec<(f64, f64)>, Vec<u32>) {
        let cut = (0..k)
            .map(|_| {
                let p = rng.gen_range(1..16u32) as f64 / 16.0;
                (1.0 - p, p)
            })
            .collect();
        let support = (0..1u32 << k)
            .map(|_| rng.gen_range(0..1u32 << dn))
            .collect();
        (cut, support)
    }

    /// The complement identity evaluated on dense vectors: the reference
    /// for both sparse paths.
    fn dense_complement(
        cut: &[(f64, f64)],
        support: &[u32],
        mass_s: &[f64],
        mass_t: &[f64],
        dn: usize,
    ) -> f64 {
        let mut sub_t = mass_t.to_vec();
        subset_sums(&mut sub_t, dn);
        sum_over_cut_configs(cut, support, |sup| {
            r_complement(
                sup,
                mass_s.iter().enumerate().map(|(m, w)| (m as u32, w)),
                &sub_t,
            )
        })
    }

    #[test]
    fn sparse_paths_match_dense_complement_in_f64() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for round in 0..300 {
            let dn = rand::Rng::gen_range(&mut rng, 1..=9usize);
            let k = rand::Rng::gen_range(&mut rng, 1..=3usize);
            let density = [0.05, 0.3, 1.0][round % 3];
            let (ds, dt) = (
                random_dense(&mut rng, dn, density),
                random_dense(&mut rng, dn, density),
            );
            let (cut, support) = random_cut(&mut rng, k, dn);
            let (s, t) = (MaskMass::from_dense(&ds), MaskMass::from_dense(&dt));
            let dense = dense_complement(&cut, &support, &ds, &dt, dn);
            let paired = combine_on_path(&cut, &support, &s, &t, SparsePath::Paired);
            let subset = combine_on_path(&cut, &support, &s, &t, SparsePath::SubsetSums);
            assert!(
                (paired - dense).abs() < 1e-12,
                "round {round}: paired {paired} vs dense {dense}"
            );
            // the subset-sum path is the dense evaluation, term for term
            assert_eq!(subset.to_bits(), dense.to_bits(), "round {round}");
            let auto = combine_spectra(&cut, &support, &s, &t, AccumulationMethod::Complement);
            assert!(auto == paired || auto == subset, "round {round}");
        }
    }

    #[test]
    fn sparse_paths_equal_paper_direct_in_exact_arithmetic() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let exact = |v: &[f64]| -> Vec<BigRational> {
            v.iter().map(|&x| BigRational::from_f64(x)).collect()
        };
        for round in 0..60 {
            let dn = rand::Rng::gen_range(&mut rng, 1..=5usize);
            let k = rand::Rng::gen_range(&mut rng, 1..=3usize);
            let density = [0.1, 0.5, 1.0][round % 3];
            let (ds, dt) = (
                exact(&random_dense(&mut rng, dn, density)),
                exact(&random_dense(&mut rng, dn, density)),
            );
            let (cut_f, support) = random_cut(&mut rng, k, dn);
            let cut: Vec<(BigRational, BigRational)> = cut_f
                .iter()
                .map(|&(a, b)| (BigRational::from_f64(a), BigRational::from_f64(b)))
                .collect();
            let (s, t) = (MaskMass::from_dense(&ds), MaskMass::from_dense(&dt));
            let direct = combine(
                &cut,
                &support,
                &ds,
                &dt,
                dn,
                AccumulationMethod::PaperDirect,
            );
            for path in [SparsePath::Paired, SparsePath::SubsetSums] {
                let r = combine_on_path(&cut, &support, &s, &t, path);
                assert_eq!(r, direct, "round {round}: {path:?}");
            }
            // the oracle methods densify and agree too
            for method in [
                AccumulationMethod::PaperDirect,
                AccumulationMethod::ZetaInclusionExclusion,
            ] {
                assert_eq!(combine_spectra(&cut, &support, &s, &t, method), direct);
            }
        }
    }

    #[test]
    fn size_test_pairs_sparse_wide_spectra_and_sums_dense_narrow_ones() {
        // a wide cut realizing few masks: pairing costs 40·40·8, the subset
        // sums 21·2^21
        assert_eq!(sparse_path(8, 40, 40, 21), SparsePath::Paired);
        // a narrow, fully realized spectrum: 16·16·8 pairs against 4·16
        // + 16·8 for the subset sums
        assert_eq!(sparse_path(8, 16, 16, 4), SparsePath::SubsetSums);
        // the boundary is strict: equal costs take the subset sums
        assert_eq!(sparse_path(1, 2, 2, 1), SparsePath::SubsetSums);

        // both picks evaluate to the dense answer
        let mut wide = MaskMass::new(21);
        let mut other = MaskMass::new(21);
        for j in 0..21u32 {
            wide.add(1 << j, &(1.0 / 64.0));
            other.add((1 << j) | 1, &(1.0 / 32.0));
        }
        let cut = vec![(0.75, 0.25)];
        let support = vec![0, (1 << 21) - 1];
        let sparse = combine_spectra(
            &cut,
            &support,
            &wide,
            &other,
            AccumulationMethod::Complement,
        );
        let dense = dense_complement(&cut, &support, &wide.to_dense(), &other.to_dense(), 21);
        assert!((sparse - dense).abs() < 1e-12, "{sparse} vs {dense}");
        let narrow_s = MaskMass::from_dense(&[0.125; 16]);
        let narrow_t = MaskMass::from_dense(&[0.0625; 16]);
        let support = vec![0b0000, 0b0110];
        let sparse = combine_spectra(
            &cut,
            &support,
            &narrow_s,
            &narrow_t,
            AccumulationMethod::Complement,
        );
        let dense = dense_complement(
            &cut,
            &support,
            &narrow_s.to_dense(),
            &narrow_t.to_dense(),
            4,
        );
        assert_eq!(sparse.to_bits(), dense.to_bits());
    }

    #[test]
    fn empty_support_gives_zero() {
        let mass = vec![0.5, 0.5];
        let cut = vec![(0.9, 0.1)];
        let support = vec![0u32, 0];
        let r = combine(
            &cut,
            &support,
            &mass,
            &mass,
            1,
            AccumulationMethod::Complement,
        );
        assert_eq!(r, 0.0);
    }
}
