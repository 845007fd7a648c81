//! Error budgeting for multi-level aggregation hierarchies (paper §5.1,
//! "Multi-level Aggregation").
//!
//! Merging exponential-histogram sketches up an `h`-level tree inflates the
//! window error: the out-of-order error `err₂` is additive per level while
//! the half-bucket error `err₁` is charged only once at query time, giving a
//! total relative error of `h·ε·(1+ε) + ε` when every histogram (site and
//! intermediate) uses the same parameter ε. The paper inverts this to budget
//! the per-site ε for a desired end-to-end error — that inverse lives in
//! [`sliding_window::timestamp`]'s sibling, re-exported here as
//! [`multilevel_epsilon`] — and this module builds the full planning layer on
//! top: per-level error tracking, the naive-compounding comparison that the
//! additive analysis beats, and memory/transfer predictions for a whole tree.
//!
//! `ecm_bench::repro::ablation_merge` and `ablation_fanout` measure the
//! observed error of budgeted and un-budgeted hierarchies (the `ablation_*`
//! rows and claims of `REPRODUCTION.json`).

use ecm::config::split_point_query;
pub use sliding_window::exponential_histogram::multilevel_epsilon;
use sliding_window::timestamp::compact_eh_bits;

use crate::topology::BinaryTree;

/// Forward error recursion of §5.1: the worst-case relative error of an
/// `h`-level hierarchy whose histograms all use parameter `eps`:
/// `h·ε·(1+ε) + ε`. `h == 0` (a single site, no aggregation) is plain `ε`.
pub fn achieved_epsilon(eps: f64, levels: u32) -> f64 {
    assert!(eps > 0.0, "epsilon must be positive");
    let h = f64::from(levels);
    h * eps * (1.0 + eps) + eps
}

/// Cumulative worst-case error after each aggregation level, from the leaves
/// (`out[0]`, the sites' own ε) to the root (`out[levels]`).
pub fn per_level_errors(eps: f64, levels: u32) -> Vec<f64> {
    (0..=levels).map(|l| achieved_epsilon(eps, l)).collect()
}

/// What the error bound *would* be if the half-bucket error `err₁`
/// compounded at every level instead of being charged once: applying
/// Theorem 4 (`ε ← ε + ε′ + ε·ε′`) blindly per level gives
/// `(1+ε)^(h+1) − 1`. The gap between this and [`achieved_epsilon`] is the
/// payoff of the paper's sharper err₁/err₂ decomposition.
pub fn naive_compounded_epsilon(eps: f64, levels: u32) -> f64 {
    assert!(eps > 0.0, "epsilon must be positive");
    (1.0 + eps).powi(levels as i32 + 1) - 1.0
}

/// A fully derived deployment plan for point queries over a balanced binary
/// aggregation tree of ECM-EH sketches.
///
/// ```
/// use distributed::HierarchyPlan;
///
/// // 10%-accurate point queries at the root of a 33-site tree.
/// let plan = HierarchyPlan::point_queries(0.1, 0.05, 1_000_000, 33, 100_000);
/// assert_eq!(plan.levels, 6);
/// // Sites must run tighter than the window share to absorb 6 merge levels.
/// assert!(plan.site_epsilon < plan.window_epsilon);
/// assert!((plan.achieved_window_epsilon() - plan.window_epsilon).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchyPlan {
    /// Number of leaf sites.
    pub sites: usize,
    /// Aggregation levels `h = ⌈log₂ sites⌉`.
    pub levels: u32,
    /// End-to-end point-query error target the plan meets.
    pub target_epsilon: f64,
    /// The share of the target spent on the window dimension after the
    /// Theorem 1 split (before hierarchy budgeting).
    pub window_epsilon: f64,
    /// The share spent on Count-Min hashing (unaffected by aggregation —
    /// the array dimensions are fixed across the tree).
    pub hashing_epsilon: f64,
    /// Per-site (and per-intermediate) exponential-histogram ε that makes
    /// the *aggregated* window error come out at `window_epsilon`.
    pub site_epsilon: f64,
    /// Count-Min array width `⌈e/ε_cm⌉`.
    pub width: usize,
    /// Count-Min array depth `⌈ln(1/δ)⌉`.
    pub depth: usize,
    /// Predicted compact size of one site's sketch, in bytes.
    pub sketch_bytes: u64,
    /// Predicted total transfer volume of one full aggregation, in bytes
    /// (`2·(sites−1)` shipped sketches).
    pub transfer_bytes: u64,
}

impl HierarchyPlan {
    /// Derive a plan for point queries at error `epsilon` and failure
    /// probability `delta` over windows of `window` ticks, with at most
    /// `max_arrivals` arrivals per window per site.
    ///
    /// # Panics
    /// If `epsilon ∉ (0,1)`, `delta ∉ (0,1)`, `window == 0`, or `sites == 0`.
    pub fn point_queries(
        epsilon: f64,
        delta: f64,
        window: u64,
        sites: usize,
        max_arrivals: u64,
    ) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0,1), got {delta}"
        );
        assert!(window > 0, "window must be positive");
        assert!(sites > 0, "need at least one site");
        let levels = BinaryTree::new(sites).height();
        // Theorem 1 split first: hashing error is immune to aggregation, so
        // only the window share is inflated down to the sites.
        let (eps_sw, eps_cm) = split_point_query(epsilon);
        let site_epsilon = multilevel_epsilon(eps_sw, levels);
        let width = (std::f64::consts::E / eps_cm).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        // Bucket count per cell: one deque per size class, each holding at
        // most ⌈k/2⌉+2 buckets for k = ⌈1/ε⌉ — but the *total* stored mass
        // is capped by the arrivals one cell sees, which on average is
        // max_arrivals / width.
        let per_cell = (max_arrivals.max(1)).div_ceil(width as u64).max(2);
        let size_classes = 64 - per_cell.leading_zeros() as u64 + 1;
        let k = (1.0 / site_epsilon).ceil() as u64;
        let buckets = size_classes * (k.div_ceil(2) + 2);
        let cell_bits = compact_eh_bits(buckets as usize, window, per_cell);
        let sketch_bytes = (cell_bits * width as u64 * depth as u64).div_ceil(8);
        let transfer_bytes = 2 * (sites as u64 - 1) * sketch_bytes;
        HierarchyPlan {
            sites,
            levels,
            target_epsilon: epsilon,
            window_epsilon: eps_sw,
            hashing_epsilon: eps_cm,
            site_epsilon,
            width,
            depth,
            sketch_bytes,
            transfer_bytes,
        }
    }

    /// The worst-case end-to-end window error this plan achieves at the
    /// root; equals `window_epsilon` up to floating-point round-off.
    pub fn achieved_window_epsilon(&self) -> f64 {
        achieved_epsilon(self.site_epsilon, self.levels)
    }

    /// Worst-case window error at the root if the sites had ignored the
    /// hierarchy and used `window_epsilon` directly — the un-budgeted
    /// deployment the ablation bench measures.
    pub fn unbudgeted_window_epsilon(&self) -> f64 {
        achieved_epsilon(self.window_epsilon, self.levels)
    }

    /// Memory overhead factor of budgeting: per-site sketches shrink ε by
    /// roughly `1/(1+h)`, and exponential-histogram memory is linear in
    /// `1/ε`, so budgeted sites pay about this factor in extra buckets.
    pub fn budgeting_memory_factor(&self) -> f64 {
        self.window_epsilon / self.site_epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliding_window::{merge_exponential_histograms, EhConfig, ExponentialHistogram};

    #[test]
    fn achieved_epsilon_matches_paper_recursion() {
        // h = 0 is the plain site error.
        assert_eq!(achieved_epsilon(0.1, 0), 0.1);
        // h = 1 is Theorem 4 with ε′ = ε: 2ε + ε².
        let one = achieved_epsilon(0.1, 1);
        assert!((one - (0.2 + 0.01)).abs() < 1e-12);
        // General h: hε(1+ε) + ε.
        let five = achieved_epsilon(0.1, 5);
        assert!((five - (5.0 * 0.1 * 1.1 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn per_level_errors_are_increasing_and_consistent() {
        let errs = per_level_errors(0.05, 6);
        assert_eq!(errs.len(), 7);
        assert_eq!(errs[0], 0.05);
        for w in errs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(*errs.last().unwrap(), achieved_epsilon(0.05, 6));
    }

    #[test]
    fn budget_then_achieve_round_trips() {
        for &target in &[0.05, 0.1, 0.2] {
            for h in 1..8u32 {
                let site = multilevel_epsilon(target, h);
                let back = achieved_epsilon(site, h);
                assert!(
                    (back - target).abs() < 1e-9,
                    "target={target} h={h} site={site} back={back}"
                );
            }
        }
    }

    #[test]
    fn naive_compounding_is_strictly_worse() {
        for &eps in &[0.02, 0.1, 0.3] {
            // A single merge (h = 1) IS Theorem 4 — the formulas coincide.
            let naive = naive_compounded_epsilon(eps, 1);
            let sharp = achieved_epsilon(eps, 1);
            assert!((naive - sharp).abs() < 1e-12, "eps={eps}");
            // From the second level on, the additive err₂ analysis wins.
            for h in 2..10u32 {
                assert!(
                    naive_compounded_epsilon(eps, h) > achieved_epsilon(eps, h),
                    "eps={eps} h={h}"
                );
            }
        }
        // At h = 0 compounding still charges one merge: ≥ the plain ε.
        assert!(naive_compounded_epsilon(0.1, 0) >= achieved_epsilon(0.1, 0));
    }

    #[test]
    fn plan_meets_its_target() {
        let plan = HierarchyPlan::point_queries(0.1, 0.1, 1_000_000, 33, 1_000_000);
        assert_eq!(plan.levels, 6);
        assert!((plan.achieved_window_epsilon() - plan.window_epsilon).abs() < 1e-9);
        // Budgeted site ε is a fraction of the window share.
        assert!(plan.site_epsilon < plan.window_epsilon);
        // The un-budgeted deployment overshoots the window share by ~h×.
        assert!(plan.unbudgeted_window_epsilon() > 5.0 * plan.window_epsilon);
        // Theorem 1 split is respected.
        let total =
            plan.window_epsilon + plan.hashing_epsilon + plan.window_epsilon * plan.hashing_epsilon;
        assert!((total - 0.1).abs() < 1e-9);
    }

    #[test]
    fn plan_scales_sanely_with_sites() {
        let small = HierarchyPlan::point_queries(0.1, 0.1, 100_000, 4, 100_000);
        let large = HierarchyPlan::point_queries(0.1, 0.1, 100_000, 256, 100_000);
        // Deeper tree → tighter per-site ε → bigger per-site sketches.
        assert!(large.site_epsilon < small.site_epsilon);
        assert!(large.sketch_bytes > small.sketch_bytes);
        assert!(large.transfer_bytes > small.transfer_bytes);
        assert!(large.budgeting_memory_factor() > small.budgeting_memory_factor());
        // Memory factor is ~1 + h (linear ε dependence), never explosive.
        assert!(large.budgeting_memory_factor() < 2.0 * f64::from(large.levels));
    }

    #[test]
    fn single_site_plan_is_degenerate() {
        let plan = HierarchyPlan::point_queries(0.1, 0.1, 1_000, 1, 1_000);
        assert_eq!(plan.levels, 0);
        assert_eq!(plan.transfer_bytes, 0);
        assert!((plan.site_epsilon - plan.window_epsilon).abs() < 1e-12);
        assert!((plan.budgeting_memory_factor() - 1.0).abs() < 1e-12);
    }

    /// End-to-end: a budgeted two-level hierarchy of plain exponential
    /// histograms observes the target window error at the root.
    #[test]
    fn budgeted_hierarchy_observes_target_error() {
        let target = 0.2;
        let levels = 2u32;
        let site_eps = multilevel_epsilon(target, levels);
        let window = 100_000u64;
        let cfg = EhConfig::new(site_eps, window);

        // Four sites, round-robin arrivals with deterministic gaps.
        let mut sites: Vec<ExponentialHistogram> =
            (0..4).map(|_| ExponentialHistogram::new(&cfg)).collect();
        let mut now = 0u64;
        let mut truth: Vec<u64> = Vec::new();
        for i in 0..80_000u64 {
            now = i * 3 + i / 11;
            sites[(i % 4) as usize].insert_one(now);
            truth.push(now);
        }
        // Level 1: pairwise merges; level 2: the root.
        let left = merge_exponential_histograms(&[&sites[0], &sites[1]], &cfg).unwrap();
        let right = merge_exponential_histograms(&[&sites[2], &sites[3]], &cfg).unwrap();
        let root = merge_exponential_histograms(&[&left, &right], &cfg).unwrap();

        for &range in &[1_000u64, 10_000, 100_000] {
            let cutoff = now - range;
            let exact = truth.iter().filter(|&&t| t > cutoff).count() as f64;
            let est = root.estimate(now, range);
            assert!(
                (est - exact).abs() <= target * exact + 2.0,
                "range={range} est={est} exact={exact}"
            );
        }
    }
}
