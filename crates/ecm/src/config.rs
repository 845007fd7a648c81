//! ECM-sketch configuration and the ε-split optimization of paper §4.1:
//! dividing an end-to-end error budget ε between the Count-Min hashing error
//! ε_cm and the per-counter sliding-window error ε_sw so that total memory
//! `∝ 1/(ε_sw·ε_cm)` is minimized under the composition constraint of the
//! relevant theorem.

use crate::api::SketchSpec;
use sliding_window::traits::WindowCounter;
use sliding_window::{
    DeterministicWave, DwConfig, EhConfig, ExactWindow, ExactWindowConfig, ExponentialHistogram,
    RandomizedWave, RwConfig,
};

/// Which query type the ε-split should be optimized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Point queries: constraint `ε_sw + ε_cm + ε_sw·ε_cm = ε` (Theorem 1).
    Point,
    /// Inner-product / self-join queries: constraint
    /// `ε_sw² + 2ε_sw + ε_cm(1+ε_sw)² = ε` (Theorem 2).
    InnerProduct,
}

/// Optimal split for point queries (Theorem 1): memory is minimized at
/// `ε_sw = ε_cm = √(ε+1) − 1`.
pub fn split_point_query(eps: f64) -> (f64, f64) {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let s = (eps + 1.0).sqrt() - 1.0;
    (s, s)
}

/// Optimal split for point queries with **randomized-wave** counters
/// (Theorem 3), where window memory scales as `1/ε_sw²`:
/// `ε_sw = (√(ε²+10ε+9) + ε − 3)/4` and
/// `ε_cm = (3ε − √(ε²+10ε+9) + 3)/(ε + √(ε²+10ε+9) + 1)`.
pub fn split_point_query_randomized(eps: f64) -> (f64, f64) {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let r = (eps * eps + 10.0 * eps + 9.0).sqrt();
    let esw = (r + eps - 3.0) / 4.0;
    let ecm = (3.0 * eps - r + 3.0) / (eps + r + 1.0);
    (esw, ecm)
}

/// Optimal split for inner-product queries (Theorem 2): minimizes
/// `1/(ε_sw·ε_cm)` subject to `ε_sw² + 2ε_sw + ε_cm(1+ε_sw)² = ε`, where
/// `ε_cm = (ε − ε_sw² − 2ε_sw)/(1+ε_sw)²`.
///
/// The paper gives the closed-form Cardano root; we solve the same
/// one-dimensional problem by golden-section search (verified against the
/// constraint and local optimality in unit tests).
pub fn split_inner_product(eps: f64) -> (f64, f64) {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    // ε_cm > 0 requires ε_sw < √(1+ε) − 1.
    let hi = (1.0 + eps).sqrt() - 1.0;
    let ecm_of = |esw: f64| (eps - esw * esw - 2.0 * esw) / ((1.0 + esw) * (1.0 + esw));
    // Maximize g(esw) = esw * ecm(esw) — strictly unimodal on (0, hi).
    let g = |esw: f64| esw * ecm_of(esw);
    let (mut a, mut b) = (hi * 1e-9, hi * (1.0 - 1e-9));
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut c, mut d) = (b - phi * (b - a), a + phi * (b - a));
    let (mut gc, mut gd) = (g(c), g(d));
    for _ in 0..200 {
        if gc > gd {
            b = d;
            d = c;
            gd = gc;
            c = b - phi * (b - a);
            gc = g(c);
        } else {
            a = c;
            c = d;
            gc = gd;
            d = a + phi * (b - a);
            gd = g(d);
        }
        if b - a < 1e-14 {
            break;
        }
    }
    let esw = 0.5 * (a + b);
    (esw, ecm_of(esw))
}

/// Full construction parameters for an [`EcmSketch`](crate::EcmSketch):
/// the Count-Min shape plus the per-cell window-counter configuration.
#[derive(Debug, Clone)]
pub struct EcmConfig<W: WindowCounter> {
    /// Counters per row (`w = ⌈e/ε_cm⌉`).
    pub width: usize,
    /// Rows / hash functions (`d = ⌈ln(1/δ_cm)⌉`).
    pub depth: usize,
    /// Hash-family seed; sketches merge only when seeds match.
    pub seed: u64,
    /// Configuration for each of the `w × d` sliding-window counters.
    pub cell: W::Config,
}

// The four derivations below are the only place accuracy targets become
// array and cell shapes. They take a spec that `SketchSpec::validate` has
// already accepted, so ε, δ and the window are in domain.

/// The ε-split the spec's query kind asks for (paper §4.1).
fn split(spec: &SketchSpec) -> (f64, f64) {
    match spec.query_kind {
        QueryKind::Point => split_point_query(spec.epsilon),
        QueryKind::InnerProduct => split_inner_product(spec.epsilon),
    }
}

/// Upper bound `u(N,S)` on arrivals per window that sizes the wave
/// variants' level pyramids (default: the window length, one arrival per
/// tick).
fn max_arrivals(spec: &SketchSpec) -> u64 {
    spec.max_arrivals.unwrap_or(spec.window)
}

/// An [`EcmConfig`] with the Count-Min shape the standard accuracy rule
/// assigns: `width = ⌈e/ε_cm⌉`, `depth = max(1, ⌈ln(1/δ_cm)⌉)`.
fn shaped<W: WindowCounter>(
    spec: &SketchSpec,
    eps_cm: f64,
    delta_cm: f64,
    cell: W::Config,
) -> EcmConfig<W> {
    EcmConfig {
        width: (std::f64::consts::E / eps_cm).ceil() as usize,
        depth: (1.0 / delta_cm).ln().ceil().max(1.0) as usize,
        seed: spec.seed,
        cell,
    }
}

/// Config for the default exponential-histogram variant (ECM-EH).
pub(crate) fn eh_config(spec: &SketchSpec) -> EcmConfig<ExponentialHistogram> {
    let (esw, ecm) = split(spec);
    shaped(spec, ecm, spec.delta, EhConfig::new(esw, spec.window))
}

/// Config for the deterministic-wave variant (ECM-DW). Arrivals spread
/// across w cells per row; the per-cell bound can be kept loose (space
/// grows only logarithmically with it).
pub(crate) fn dw_config(spec: &SketchSpec) -> EcmConfig<DeterministicWave> {
    let (esw, ecm) = split(spec);
    let cell = DwConfig::new(esw, spec.window, max_arrivals(spec));
    shaped(spec, ecm, spec.delta, cell)
}

/// Config for the randomized-wave variant (ECM-RW). The failure budget is
/// split δ/2 to hashing and δ/2 to the window counters (Theorem 3), and the
/// ε-split accounts for the quadratic window-memory dependence. Theorem 2
/// gives no RW guarantee for inner products (paper §7.2), so both query
/// kinds use the point split for a usable structure.
pub(crate) fn rw_config(spec: &SketchSpec) -> EcmConfig<RandomizedWave> {
    let (esw, ecm) = split_point_query_randomized(spec.epsilon);
    let cell = RwConfig::new(
        esw,
        spec.delta / 2.0,
        spec.window,
        max_arrivals(spec),
        // Cell hashing must agree across mergeable sketches.
        spec.seed ^ 0xecc5_11d5_0f0f_a11e,
    );
    shaped(spec, ecm, spec.delta / 2.0, cell)
}

/// Config for the exact-counter variant (no window error; a ground-truth
/// harness with the same API). All of ε goes to the Count-Min dimension.
pub(crate) fn exact_config(spec: &SketchSpec) -> EcmConfig<ExactWindow> {
    shaped(
        spec,
        spec.epsilon,
        spec.delta,
        ExactWindowConfig::new(spec.window),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Backend;

    #[test]
    fn point_split_satisfies_theorem1_constraint() {
        for &eps in &[0.01, 0.05, 0.1, 0.25, 0.5] {
            let (esw, ecm) = split_point_query(eps);
            assert!(esw > 0.0 && ecm > 0.0);
            let total = esw + ecm + esw * ecm;
            assert!((total - eps).abs() < 1e-12, "eps={eps} total={total}");
        }
    }

    #[test]
    fn randomized_split_satisfies_theorem3_constraint() {
        for &eps in &[0.05, 0.1, 0.2, 0.4] {
            let (esw, ecm) = split_point_query_randomized(eps);
            assert!(esw > 0.0 && ecm > 0.0, "eps={eps}: esw={esw} ecm={ecm}");
            let total = esw + ecm + esw * ecm;
            assert!((total - eps).abs() < 1e-9, "eps={eps} total={total}");
            // The RW split pushes more error to the window side than the
            // symmetric deterministic split, because window memory is
            // quadratic in 1/ε_sw.
            let (esw_det, _) = split_point_query(eps);
            assert!(esw > esw_det);
        }
    }

    #[test]
    fn inner_product_split_satisfies_theorem2_constraint() {
        for &eps in &[0.05, 0.1, 0.2, 0.4] {
            let (esw, ecm) = split_inner_product(eps);
            assert!(esw > 0.0 && ecm > 0.0);
            let total = esw * esw + 2.0 * esw + ecm * (1.0 + esw) * (1.0 + esw);
            assert!((total - eps).abs() < 1e-9, "eps={eps} total={total}");
        }
    }

    #[test]
    fn inner_product_split_is_memory_optimal() {
        // Perturbing ε_sw either way must not improve the memory objective
        // 1/(ε_sw·ε_cm) while meeting the same constraint.
        for &eps in &[0.1, 0.3] {
            let (esw, ecm) = split_inner_product(eps);
            let obj = 1.0 / (esw * ecm);
            for delta in [-1e-4, 1e-4] {
                let e2 = esw + delta;
                let c2 = (eps - e2 * e2 - 2.0 * e2) / ((1.0 + e2) * (1.0 + e2));
                if c2 > 0.0 {
                    assert!(
                        1.0 / (e2 * c2) >= obj - 1e-6,
                        "perturbation improved objective at eps={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_produces_paper_dimensions() {
        let spec = SketchSpec::time(1000).epsilon(0.1).delta(0.1).seed(5);
        let cfg = spec.ecm_config::<ExponentialHistogram>().unwrap();
        // ε_cm = √1.1 − 1 ≈ 0.0488 → w = ⌈e/0.0488⌉ = 56; d = ⌈ln 10⌉ = 3.
        assert_eq!(cfg.width, 56);
        assert_eq!(cfg.depth, 3);
        assert_eq!(cfg.seed, 5);
        assert!((cfg.cell.epsilon - 0.048_808).abs() < 1e-4);
        assert_eq!(cfg.cell.window, 1000);
    }

    #[test]
    fn rw_config_splits_delta() {
        let spec = SketchSpec::time(1000)
            .backend(Backend::Rw)
            .max_arrivals(50_000);
        let cfg = spec.ecm_config::<RandomizedWave>().unwrap();
        // δ_cm = 0.05 → d = ⌈ln 20⌉ = 3.
        assert_eq!(cfg.depth, 3);
        assert!((cfg.cell.delta - 0.05).abs() < 1e-12);
        assert_eq!(cfg.cell.max_arrivals, 50_000);
    }

    #[test]
    fn dw_and_exact_configs_consistent() {
        let spec = SketchSpec::time(500)
            .epsilon(0.2)
            .delta(0.05)
            .max_arrivals(10_000);
        let dw = dw_config(&spec);
        assert_eq!(dw.cell.window, 500);
        assert_eq!(dw.cell.max_arrivals, 10_000);
        let ex = exact_config(&spec);
        // Exact cells: the whole ε budget goes to hashing → narrower array
        // than the EH variant at the same ε.
        assert!(ex.width < eh_config(&spec).width);
    }

    #[test]
    fn inner_product_split_monotone_in_eps() {
        let mut prev = 0.0;
        for &eps in &[0.05, 0.1, 0.2, 0.3, 0.4] {
            let (esw, _) = split_inner_product(eps);
            assert!(esw > prev, "esw should grow with eps");
            prev = esw;
        }
    }
}
