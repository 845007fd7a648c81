//! The paper's evaluation as data: Figs. 4–6 and Tables 2–4 (§7), the §2
//! baselines, the §5–6 distributed extensions and the ablations. Each
//! experiment returns its table or figure cells as [`Row`]s and the paper's
//! qualitative shapes as [`Claim`]s: one measured value against a fixed
//! margin. `src/bin/repro.rs` writes both to the checked-in
//! `REPRODUCTION.json`; `tests/reproduction.rs` checks the file and re-runs
//! the scale-free claims live.

use crate::baselines::{EquiWidthConfig, EquiWidthWindow, HybridConfig, HybridHistogram};
use crate::{build_distributed, build_sketch, score_point_queries, score_self_join};
use crate::{Dataset, ErrorSummary, VariantConfigs, WINDOW};
use distributed::geometric::SelfJoinFn;
use distributed::{aggregate_kary_tree, aggregate_tree, multilevel_epsilon, run_protocol};
use distributed::{DriftPropagation, ForwardAllProtocol, GeometricMonitor, KaryTree};
use distributed::{MonitoringProtocol, PeriodicPushProtocol, RunReport};
use ecm::{split_inner_product, split_point_query, EcmConfig, EcmEh, EcmSketch};
use ecm::{EcmHierarchy, Query, QueryKind, SketchReader, SketchSpec, SketchWriter, WindowSpec};
use sliding_window::traits::{MergeableCounter, WindowCounter};
use sliding_window::{DeterministicWave as Dw, DwConfig, EhConfig, ExponentialHistogram as Eh};
use sliding_window::{RandomizedWave as Rw, RwConfig};
use std::time::Instant;
use stream_gen::WindowOracle;
use stream_gen::{inject_flash_crowd, partition_by_site, uniform_sites, Event, FlashCrowd};

const EPSILONS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];
/// Point queries scored per range: the paper experiments, the ablations.
const MAX_KEYS: usize = 400;
const ABLATION_KEYS: usize = 300;

/// Every claim, one per line: id | paper reference | comparison | margin |
/// what the measured value is. A claim is reproduced when `value op margin`.
pub const CLAIMS: &str = "\
table3.eh_at_least_dw | Table 3 | >= | 1 | smallest EH / DW update rate
table3.dw_over_rw | Table 3 | >= | 5 | smallest DW / RW update rate
fig4.error_within_eps | Fig. 4 | <= | 1 | largest max_err / eps of any cell
fig4.rw_memory_over_deterministic | Fig. 4 | >= | 10 | smallest RW / max(EH, DW) memory
fig4.dw_over_eh_memory_low | Fig. 4 | >= | 1.5 | smallest DW / EH memory
fig4.dw_over_eh_memory_high | Fig. 4 | <= | 3 | largest DW / EH memory
table2.eh_memory_linear | Table 2 | >= | 3 | EH memory at eps 0.05 / at eps 0.2
table2.rw_memory_quadratic | Table 2 | >= | 12 | RW memory at eps 0.05 / at eps 0.2
fig5.rw_transfer_over_eh | Fig. 5 | >= | 10 | smallest RW / EH point transfer
fig6.eh_error_grows | Fig. 6 | >= | 1 | EH point error at 256 nodes / at 1 node
fig6.rw_error_flat | Fig. 6 | <= | 0 | max - min RW point error over sizes
fig6.rw_transfer_over_eh | Fig. 6 | >= | 10 | smallest RW / EH transfer above 1 node
table4.eh_ratio | Table 4 | <= | 1.3 | largest EH distributed / centralized error
table4.rw_lossless | Table 4 | <= | 0 | largest |RW distributed / centralized - 1|
ablation.optimal_split_most_compact | §4.1 | <= | 1 | optimal / best other split memory
ablation.fanout_within_target | §5.1 | <= | 1 | largest root max_err / 0.1 target
ablation.merge_theorem4 | §5.1, Thm. 4 | <= | 1 | largest max_err / (eps + eps' + eps*eps')
ablation.propagation_within_bound | §2 | <= | 1 | largest max_err / (theta + eps)
s2.eh_within_eps | §2 | <= | 0.1 | largest EH relative error at any range
s2.equiwidth_unbounded | §2 | > | 0.1 | smallest equi-width relative error below a slot
s2.hybrid_unbounded | §2 | >= | 2 | smallest hybrid / hierarchy narrow-or-point max error
s2.hierarchy_within_eps | §6.1 | <= | 0.1 | largest dyadic hierarchy max error
s6_2.geometric_exact | §6.2 | <= | 0 | geometric wrong-side events
s6_2.geometric_cheaper | §6.2 | < | 1 | geometric / forward-all bytes
";

/// One cell of a table or figure.
pub struct Row {
    /// The experiment: `fig4`, `table2`, `ablation_merge`, …
    pub exp: &'static str,
    /// The labels that place the cell (dataset, variant, query, …).
    pub labels: Vec<(&'static str, String)>,
    /// Names of the measured values, space-separated.
    pub names: &'static str,
    /// The measured values.
    pub values: Vec<f64>,
}

/// One qualitative shape of the paper, measured: a line of [`CLAIMS`].
pub struct Claim {
    /// Stable identifier, e.g. `fig4.error_within_eps`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub paper: &'static str,
    /// One of `<`, `<=`, `>`, `>=`.
    pub op: &'static str,
    /// The fixed bound `value` is compared against.
    pub margin: f64,
    /// What `value` is.
    pub measures: &'static str,
    /// The measured value.
    pub value: f64,
}

/// `reproduced` when `value op margin` holds, else `not_reproduced`.
pub fn verdict(value: f64, op: &str, margin: f64) -> &'static str {
    let holds = match op {
        "<" => value < margin,
        "<=" => value <= margin,
        ">" => value > margin,
        ">=" => value >= margin,
        _ => panic!("unknown comparison {op:?}"),
    };
    ["not_reproduced", "reproduced"][usize::from(holds)]
}

impl Claim {
    /// `reproduced` or `not_reproduced`.
    pub fn verdict(&self) -> &'static str {
        verdict(self.value, self.op, self.margin)
    }
}

/// Every line of [`CLAIMS`], not yet measured (`value` is NaN).
pub fn listed_claims() -> impl Iterator<Item = Claim> {
    CLAIMS.lines().map(|line| {
        let fields: Vec<&'static str> = line.split(" | ").collect();
        let [id, paper, op, margin, measures] = fields[..] else {
            panic!("malformed claim line {line:?}")
        };
        let margin = margin.parse().expect("a numeric margin");
        let value = f64::NAN;
        Claim {
            id,
            paper,
            op,
            margin,
            measures,
            value,
        }
    })
}

/// The rows and claims of one or more experiments.
#[derive(Default)]
pub struct Report {
    /// Table and figure cells, in experiment order.
    pub rows: Vec<Row>,
    /// Claims, in experiment order.
    pub claims: Vec<Claim>,
}

type Labels<'a> = &'a [(&'static str, &'a str)];

impl Report {
    fn row(&mut self, exp: &'static str, labels: Labels, names: &'static str, values: &[f64]) {
        let labels = labels.iter().map(|&(k, v)| (k, v.to_string()));
        let (labels, values) = (labels.collect(), values.to_vec());
        self.rows.push(Row {
            exp,
            labels,
            names,
            values,
        });
    }

    fn claim(&mut self, id: &str, value: f64) {
        let listed = listed_claims().find(|c| c.id == id);
        self.claims.push(Claim {
            value,
            ..listed.expect("every claim is listed")
        });
    }

    /// Append `other`'s rows and claims.
    pub fn extend(&mut self, other: Report) {
        self.rows.extend(other.rows);
        self.claims.extend(other.claims);
    }
}

/// A trace: its label, its events and its number of sites.
pub type Set<'a> = (&'a str, &'a [Event], u32);

/// The two evaluation traces at `n` events, with the suite's seed.
pub fn datasets(n: usize) -> Vec<(Dataset, Vec<Event>)> {
    let data = [Dataset::Wc98, Dataset::Snmp].map(|d| (d, d.generate(n, 42)));
    data.into()
}

/// [`datasets`] as [`Set`]s.
pub fn sets(data: &[(Dataset, Vec<Event>)]) -> Vec<Set<'_>> {
    let sets = data.iter().map(|(d, e)| (d.label(), &e[..], d.sites()));
    sets.collect()
}

/// Every experiment at `n` events (the ablations at `n / 2`, the
/// monitoring comparison at a fixed 20 000).
pub fn suite(n: usize) -> Report {
    let data = datasets(n);
    let sets = sets(&data);
    let mut report = Report::default();
    // Table 3 first: its rates are the only timing-sensitive paper rows.
    let paper = [table3(&sets), fig4(&sets), table2(), fig5(&sets)];
    let distributed = [fig6(n), table4(&sets), ablation_split(n / 2)];
    let extensions = [
        ablation_fanout(n / 2),
        ablation_merge(n / 2),
        propagation(n),
    ];
    let baselines = [baseline_equiwidth(), baseline_hybrid(n), monitoring(20_000)];
    let parts = paper.into_iter().chain(distributed).chain(extensions);
    parts.chain(baselines).for_each(|part| report.extend(part));
    report
}

/// Point (capped at [`MAX_KEYS`] keys per range) or self-join error.
fn score<W>(sk: &EcmSketch<W>, o: &WindowOracle, point: bool) -> ErrorSummary
where
    W: WindowCounter + 'static,
{
    if point {
        score_point_queries(sk, o, o.last_tick(), MAX_KEYS)
    } else {
        score_self_join(sk, o, o.last_tick())
    }
}

/// The paper's (ε, δ = 0.1) configs for point or self-join queries.
fn configs(point: bool, eps: f64, events: &[Event]) -> VariantConfigs {
    let u = events.len() as u64;
    if point {
        VariantConfigs::point(eps, 0.1, u, 7)
    } else {
        VariantConfigs::inner_product(eps, 0.1, u, 7)
    }
}

/// **Fig. 4** — centralized observed error versus memory, point and
/// self-join queries, ε ∈ [0.05, 0.25], δ = 0.1.
pub fn fig4(sets: &[Set]) -> Report {
    let mut r = Report::default();
    let (mut worst, mut rw_over) = (0f64, f64::INFINITY);
    let (mut dw_lo, mut dw_hi) = (f64::INFINITY, 0f64);
    for &(ds, events, _) in sets {
        let o = WindowOracle::from_events(events);
        for (query, point) in [("point", true), ("self-join", false)] {
            for eps in EPSILONS {
                let cfgs = configs(point, eps, events);
                let eh = build_sketch(&cfgs.eh(), events);
                let dw = build_sketch(&cfgs.dw(), events);
                let (eh_mem, dw_mem) = (eh.memory_bytes(), dw.memory_bytes());
                let mut cells = vec![
                    ("ECM-EH", eh_mem, score(&eh, &o, point)),
                    ("ECM-DW", dw_mem, score(&dw, &o, point)),
                ];
                // ECM-RW has no self-join guarantee (§7.2), and the paper
                // could not run it at ε = 0.05; both cut-offs are kept.
                if point && eps >= 0.10 {
                    let rw = build_sketch(&cfgs.rw(), events);
                    let rw_mem = rw.memory_bytes();
                    rw_over = rw_over.min(rw_mem as f64 / eh_mem.max(dw_mem) as f64);
                    cells.push(("ECM-RW", rw_mem, score(&rw, &o, point)));
                }
                let dw_over = dw_mem as f64 / eh_mem as f64;
                (dw_lo, dw_hi) = (dw_lo.min(dw_over), dw_hi.max(dw_over));
                for (variant, bytes, s) in cells {
                    worst = worst.max(s.max / eps);
                    let labels = [("dataset", ds), ("query", query), ("variant", variant)];
                    let cols = "eps memory_bytes avg_err max_err";
                    r.row("fig4", &labels, cols, &[eps, bytes as f64, s.avg, s.max]);
                }
            }
        }
    }
    r.claim("fig4.error_within_eps", worst);
    r.claim("fig4.rw_memory_over_deterministic", rw_over);
    r.claim("fig4.dw_over_eh_memory_low", dw_lo);
    r.claim("fig4.dw_over_eh_memory_high", dw_hi);
    r
}

/// Memory, update and query cost of one counter after `n` arrivals.
fn counter<W: WindowCounter>(cfg: &W::Config, n: u64) -> [f64; 3] {
    let mut c = W::new(cfg);
    let t0 = Instant::now();
    for i in 1..=n {
        c.insert(i, i);
    }
    let update_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let (t1, reps) = (Instant::now(), 2_000u64);
    let sink: f64 = (0..reps).map(|r| c.query(n, (r % n) + 1)).sum();
    let query_ns = t1.elapsed().as_nanos() as f64 / reps as f64;
    std::hint::black_box(sink);
    [c.memory_bytes() as f64, update_ns, query_ns]
}

/// **Table 2** — per-counter space and cost of the three window structures,
/// as an ε sweep at N = 200 000 and an arrival sweep at ε = 0.1. The paper's
/// table is analytic: EH/DW memory O(ln²(N)/ε), RW O(ln²(N)/ε²).
pub fn table2() -> Report {
    let mut r = Report::default();
    let mut memory = Vec::new();
    let sweep = [0.05, 0.1, 0.2].map(|eps| (eps, 200_000u64));
    let arrivals = [20_000, 2_000_000].map(|n| (0.1, n));
    for (eps, n) in sweep.into_iter().chain(arrivals) {
        let eh = counter::<Eh>(&EhConfig::new(eps, n), n);
        let dw = counter::<Dw>(&DwConfig::new(eps, n, n), n);
        let rw = counter::<Rw>(&RwConfig::new(eps, 0.1, n, n, 7), n);
        for (s, [bytes, update, query]) in [("EH", eh), ("DW", dw), ("RW", rw)] {
            let cols = "eps arrivals memory_bytes update_ns query_ns";
            let values = [eps, n as f64, bytes, update, query];
            r.row("table2", &[("structure", s)], cols, &values);
            memory.push(((s, eps, n), bytes));
        }
    }
    let at = |key| memory.iter().find(|m| m.0 == key).expect("swept").1;
    let ratio = |s| at((s, 0.05, 200_000)) / at((s, 0.2, 200_000));
    r.claim("table2.eh_memory_linear", ratio("EH"));
    r.claim("table2.rw_memory_quadratic", ratio("RW"));
    r
}

/// Per-event insert rate of a centralized sketch, in updates per second.
fn rate<W: WindowCounter>(cfg: &EcmConfig<W>, events: &[Event]) -> f64 {
    let mut sk = EcmSketch::new(cfg);
    let t0 = Instant::now();
    for (i, e) in events.iter().enumerate() {
        let inserted = sk.insert_with_id(e.ts, e.key, i as u64 + 1);
        inserted.expect("trace ticks are non-decreasing");
    }
    events.len() as f64 / t0.elapsed().as_secs_f64()
}

/// **Table 3** — update rates of the centralized variants at ε = 0.1. A
/// timing row: its claims are checked from the recorded file, never live.
pub fn table3(sets: &[Set]) -> Report {
    let mut r = Report::default();
    let (mut eh_dw, mut dw_rw) = (f64::INFINITY, f64::INFINITY);
    for &(ds, events, _) in sets {
        let cfgs = configs(true, 0.1, events);
        let (eh, dw) = (rate(&cfgs.eh(), events), rate(&cfgs.dw(), events));
        let rw = rate(&cfgs.rw(), events);
        let cols = "eh_per_s dw_per_s rw_per_s";
        r.row("table3", &[("dataset", ds)], cols, &[eh, dw, rw]);
        (eh_dw, dw_rw) = (eh_dw.min(eh / dw), dw_rw.min(dw / rw));
    }
    r.claim("table3.eh_at_least_dw", eh_dw);
    r.claim("table3.dw_over_rw", dw_rw);
    r
}

/// **Fig. 5** — distributed observed error versus the network transfer of
/// one full tree aggregation over each dataset's sites.
pub fn fig5(sets: &[Set]) -> Report {
    let mut r = Report::default();
    let mut rw_over = f64::INFINITY;
    for &(ds, events, sites) in sets {
        let o = WindowOracle::from_events(events);
        for eps in EPSILONS {
            let (point, self_join) = (configs(true, eps, events), configs(false, eps, events));
            let (root, eh) = build_distributed(&point.eh(), events, sites);
            let eh_err = score(&root, &o, true);
            let (root, sj) = build_distributed(&self_join.eh(), events, sites);
            let mut cells = vec![
                ("ECM-EH", "point", eh.bytes, eh_err),
                ("ECM-EH", "self-join", sj.bytes, score(&root, &o, false)),
            ];
            if eps >= 0.10 {
                let (root, rw) = build_distributed(&point.rw(), events, sites);
                rw_over = rw_over.min(rw.bytes as f64 / eh.bytes as f64);
                cells.push(("ECM-RW", "point", rw.bytes, score(&root, &o, true)));
            }
            for (variant, query, bytes, s) in cells {
                let labels = [("dataset", ds), ("query", query), ("variant", variant)];
                let cols = "eps transfer_bytes avg_err";
                r.row("fig5", &labels, cols, &[eps, bytes as f64, s.avg]);
            }
        }
    }
    r.claim("fig5.rw_transfer_over_eh", rw_over);
    r
}

/// **Fig. 6** — observed error and transfer volume on a uniform network of
/// 1, 2, 4, …, 256 nodes at ε = δ = 0.1.
pub fn fig6(n: usize) -> Report {
    let mut r = Report::default();
    let (mut first, mut last, mut rw_over) = (0.0, 0.0, f64::INFINITY);
    let (mut rw_lo, mut rw_hi) = (f64::INFINITY, 0f64);
    for nodes in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let events = uniform_sites(n, nodes, 42);
        let o = WindowOracle::from_events(&events);
        let (point, self_join) = (configs(true, 0.1, &events), configs(false, 0.1, &events));
        let (root, eh) = build_distributed(&point.eh(), &events, nodes);
        let eh_err = score(&root, &o, true).avg;
        let (root, _) = build_distributed(&self_join.eh(), &events, nodes);
        let sj_err = score(&root, &o, false).avg;
        let (root, rw) = build_distributed(&point.rw(), &events, nodes);
        let rw_err = score(&root, &o, true).avg;
        let (eh_bytes, rw_bytes) = (eh.bytes as f64, rw.bytes as f64);
        let cols = "nodes eh_point_err eh_self_join_err eh_bytes rw_point_err rw_bytes";
        let values = [f64::from(nodes), eh_err, sj_err, eh_bytes, rw_err, rw_bytes];
        r.row("fig6", &[], cols, &values);
        if nodes == 1 {
            first = eh_err;
        } else {
            rw_over = rw_over.min(rw_bytes / eh_bytes);
        }
        last = eh_err;
        (rw_lo, rw_hi) = (rw_lo.min(rw_err), rw_hi.max(rw_err));
    }
    r.claim("fig6.eh_error_grows", last / first);
    r.claim("fig6.rw_error_flat", rw_hi - rw_lo);
    r.claim("fig6.rw_transfer_over_eh", rw_over);
    r
}

/// Average error of the centralized and of the tree-aggregated sketch.
fn central_and_tree<W>(cfg: &EcmConfig<W>, set: Set, o: &WindowOracle, point: bool) -> [f64; 2]
where
    W: MergeableCounter + 'static,
{
    let (_, events, sites) = set;
    let central = score(&build_sketch(cfg, events), o, point).avg;
    let (root, _) = build_distributed(cfg, events, sites);
    [central, score(&root, o, point).avg]
}

/// **Table 4** — observed error of the centralized versus the distributed
/// sketch, ε ∈ {0.1, 0.2}.
pub fn table4(sets: &[Set]) -> Report {
    let mut r = Report::default();
    let (mut eh_worst, mut rw_off) = (0f64, 0f64);
    for eps in [0.1, 0.2] {
        for &set in sets {
            let (ds, events, _) = set;
            let o = WindowOracle::from_events(events);
            let (point, self_join) = (configs(true, eps, events), configs(false, eps, events));
            let eh_point = central_and_tree(&point.eh(), set, &o, true);
            let eh_self_join = central_and_tree(&self_join.eh(), set, &o, false);
            let rw_point = central_and_tree(&point.rw(), set, &o, true);
            let cells = [
                ("ECM-EH", "point", eh_point),
                ("ECM-EH", "self-join", eh_self_join),
                ("ECM-RW", "point", rw_point),
            ];
            for (variant, query, [central, distributed]) in cells {
                let ratio = distributed / central.max(1e-12);
                let labels = [("dataset", ds), ("query", query), ("variant", variant)];
                let cols = "eps central_err distributed_err ratio";
                r.row("table4", &labels, cols, &[eps, central, distributed, ratio]);
                if variant == "ECM-RW" {
                    rw_off = rw_off.max((ratio - 1.0).abs());
                } else {
                    eh_worst = eh_worst.max(ratio);
                }
            }
        }
    }
    r.claim("table4.eh_ratio", eh_worst);
    r.claim("table4.rw_lossless", rw_off);
    r
}

/// **Ablation, §4.1** — the optimal split of ε between the Count-Min and
/// the window dimension against naive splits on the Theorem-1 surface.
pub fn ablation_split(n: usize) -> Report {
    let mut r = Report::default();
    let events = Dataset::Wc98.generate(n, 42);
    let o = WindowOracle::from_events(&events);
    let eps = 0.1;
    let (mut optimal, mut others) = (0.0, f64::INFINITY);
    let naive = [0.08, 0.02, 0.095, 0.005].map(|sw| (sw, (eps - sw) / (1.0 + sw)));
    let names = "optimal window-heavy cm-heavy extreme-window extreme-cm".split(' ');
    let splits = [split_point_query(eps)].into_iter().chain(naive);
    for (split, (eps_sw, eps_cm)) in names.zip(splits) {
        let width = (std::f64::consts::E / eps_cm).ceil() as usize;
        let cell = EhConfig::new(eps_sw, WINDOW);
        let cfg = EcmConfig::<Eh> {
            width,
            depth: 3,
            seed: 7,
            cell,
        };
        let sk = build_sketch(&cfg, &events);
        let s = score_point_queries(&sk, &o, o.last_tick(), ABLATION_KEYS);
        let bytes = sk.memory_bytes() as f64;
        let cols = "eps_sw eps_cm memory_bytes avg_err max_err";
        let values = [eps_sw, eps_cm, bytes, s.avg, s.max];
        r.row("ablation_split", &[("split", split)], cols, &values);
        if split == "optimal" {
            optimal = bytes;
        } else {
            others = others.min(bytes);
        }
    }
    let (sw, cm) = split_inner_product(eps);
    let labels = [("split", "inner-product optimal")];
    r.row("ablation_split", &labels, "eps_sw eps_cm", &[sw, cm]);
    r.claim("ablation.optimal_split_most_compact", optimal / others);
    r
}

/// An EH site sketch of `part`, arrival ids namespaced by site.
fn site_sketch(cfg: &EcmConfig<Eh>, part: &[Event], site: usize) -> EcmEh {
    let mut sk = EcmEh::new(cfg);
    sk.set_id_namespace(site as u64 + 1);
    part.iter().for_each(|e| sk.insert(e.ts, e.key));
    sk
}

/// EH config at `eps` over the paper window.
fn eh_config(eps: f64, seed: u64) -> EcmConfig<Eh> {
    let spec = SketchSpec::time(WINDOW).epsilon(eps).seed(seed);
    spec.ecm_config().expect("valid spec")
}

/// **Ablation, §5.1** — the fanout of a k-ary aggregation tree over 64
/// sites, per-site ε budgeted for a root target of 0.1.
pub fn ablation_fanout(n: usize) -> Report {
    const SITES: usize = 64;
    let mut r = Report::default();
    let events = uniform_sites(n, SITES as u32, 42);
    let o = WindowOracle::from_events(&events);
    let parts = partition_by_site(&events, SITES as u32);
    let mut worst = 0f64;
    for fanout in [2usize, 4, 8, 16, SITES] {
        let site_eps = multilevel_epsilon(0.1, KaryTree::new(SITES, fanout).height());
        let cfg = eh_config(site_eps, 7);
        let mut site_bytes = 0usize;
        let leaf = |i: usize| {
            let sk = site_sketch(&cfg, &parts[i], i);
            site_bytes = site_bytes.max(sk.memory_bytes());
            sk
        };
        let out = aggregate_kary_tree(SITES, fanout, leaf, &cfg.cell).expect("sketches merge");
        let s = score_point_queries(&out.root, &o, o.last_tick(), ABLATION_KEYS);
        worst = worst.max(s.max / 0.1);
        let st = out.stats;
        let cols = "fanout levels messages bytes site_bytes site_eps avg_err max_err";
        let counts = [fanout as u64, st.levels.into(), st.messages, st.bytes];
        let counts = counts
            .into_iter()
            .chain([site_bytes as u64])
            .map(|v| v as f64);
        let values: Vec<f64> = counts.chain([site_eps, s.avg, s.max]).collect();
        r.row("ablation_fanout", &[], cols, &values);
    }
    r.claim("ablation.fanout_within_target", worst);
    r
}

/// **Ablation, §5.1** — the merge output ε′ at 8 sites (Theorem 4 bounds
/// the root by ε + ε′ + ε·ε′), then hierarchy height with and without the
/// `multilevel_epsilon` compensation.
pub fn ablation_merge(n: usize) -> Report {
    let mut r = Report::default();
    let (eps, events) = (0.1, uniform_sites(n, 8, 42));
    let o = WindowOracle::from_events(&events);
    let (cfg, parts) = (eh_config(eps, 7), partition_by_site(&events, 8));
    let mut worst = 0f64;
    for eps_prime in [0.02, 0.05, 0.1, 0.2, 0.4] {
        let out_cell = EhConfig::new(eps_prime, WINDOW);
        let out = aggregate_tree(8, |i| site_sketch(&cfg, &parts[i], i), &out_cell);
        let root = out.expect("sketches merge").root;
        let s = score_point_queries(&root, &o, o.last_tick(), ABLATION_KEYS);
        worst = worst.max(s.max / (eps + eps_prime + eps * eps_prime));
        let cols = "eps_prime avg_err max_err root_bytes";
        let values = [eps_prime, s.avg, s.max, root.memory_bytes() as f64];
        r.row("ablation_merge", &[("sweep", "eps_prime")], cols, &values);
    }
    for nodes in [2usize, 8, 32, 128] {
        let h = usize::BITS - (nodes - 1).leading_zeros();
        let events = uniform_sites(n, nodes as u32, 77);
        let o = WindowOracle::from_events(&events);
        let parts = partition_by_site(&events, nodes as u32);
        let run = |site_eps: f64| {
            let cfg = eh_config(site_eps, 9);
            let out = aggregate_tree(nodes, |i| site_sketch(&cfg, &parts[i], i), &cfg.cell);
            let root = out.expect("sketches merge").root;
            let s = score_point_queries(&root, &o, o.last_tick(), ABLATION_KEYS);
            (s.avg, root.memory_bytes() as f64)
        };
        let ((plain, plain_bytes), comp_eps) = (run(0.1), multilevel_epsilon(0.1, h));
        let (comp, comp_bytes) = run(comp_eps);
        let cols = "nodes levels plain_err comp_site_eps comp_err comp_memory_ratio";
        let ratio = comp_bytes / plain_bytes;
        let values = [nodes as f64, f64::from(h), plain, comp_eps, comp, ratio];
        r.row("ablation_merge", &[("sweep", "height")], cols, &values);
    }
    r.claim("ablation.merge_theorem4", worst);
    r
}

/// **§2 related work** — drift-triggered EH propagation (Chan et al.): a
/// site re-ships its histogram when its estimate drifts by (1 ± θ); the
/// windowed count is tracked at 8 sites over a window of 100 000.
pub fn propagation(n: usize) -> Report {
    const WINDOW: u64 = 100_000;
    let mut r = Report::default();
    let events = uniform_sites(n, 8, 77);
    let mut worst = 0f64;
    for theta in [0.02, 0.05, 0.1, 0.2, 0.4] {
        let mut p = DriftPropagation::new(8, &EhConfig::new(0.05, WINDOW), theta);
        let (mut sum, mut max, mut samples) = (0.0, 0f64, 0u32);
        for (i, e) in events.iter().enumerate() {
            p.observe(e.site as usize, e.ts);
            if i % 997 == 0 && i > n / 10 {
                let cutoff = e.ts.saturating_sub(WINDOW);
                let live = events[..=i].iter().rev().take_while(|x| x.ts > cutoff);
                let exact = live.count() as f64;
                if exact >= 50.0 {
                    let err = (p.coordinator_estimate() - exact).abs() / exact;
                    (sum, max, samples) = (sum + err, max.max(err), samples + 1);
                }
            }
        }
        worst = worst.max(max / p.error_bound());
        let (st, avg) = (p.stats(), sum / f64::from(samples.max(1)));
        let cols = "theta bound shipments bytes avg_err max_err";
        let sent = [st.shipments as f64, st.bytes as f64];
        let values = [&[theta, p.error_bound()][..], &sent, &[avg, max]].concat();
        r.row("propagation", &[], cols, &values);
    }
    r.claim("ablation.propagation_within_bound", worst);
    r
}

/// **§2 baseline** — equi-width sub-window counters (Hung & Ting,
/// Dimitropoulos et al.) against the exponential histogram at comparable
/// memory on a bursty stream, as bare counters and as full ECM-sketches
/// (point queries on key 7 of 50).
pub fn baseline_equiwidth() -> Report {
    let mut r = Report::default();
    let (window, eps) = (100_000u64, 0.1);
    // Every 1000-tick period's arrivals land in its first 100 ticks.
    let mut ticks: Vec<u64> = (0..100_000u64)
        .map(|i| i / 1000 * 1000 + 1 + i % 100)
        .collect();
    ticks.sort_unstable();
    let now = *ticks.last().expect("non-empty");
    let mut eh = Eh::new(&EhConfig::new(eps, window));
    ticks.iter().for_each(|&t| eh.insert_one(t));
    let buckets = (eh.memory_bytes() / 16).max(16);
    let mut ew = EquiWidthWindow::new(&EquiWidthConfig::new(window, buckets));
    ticks.iter().for_each(|&t| ew.insert_ones(t, 1));
    let spec = SketchSpec::time(window).epsilon(eps).delta(0.1).seed(5);
    let eh_cfg: EcmConfig<Eh> = spec.ecm_config().expect("valid spec");
    // ECM-EW: the ECM-EH sketch's Count-Min array over equi-width cells.
    let ew_cfg = EcmConfig {
        width: eh_cfg.width,
        depth: eh_cfg.depth,
        seed: eh_cfg.seed,
        cell: EquiWidthConfig::new(window, 64),
    };
    let mut ecm_eh = EcmEh::new(&eh_cfg);
    let mut ecm_ew = EcmSketch::<EquiWidthWindow>::new(&ew_cfg);
    for (i, &t) in ticks.iter().enumerate() {
        let (key, id) = (i as u64 % 50, i as u64 + 1);
        ecm_eh.insert_with_id(t, key, id).expect("ticks are sorted");
        ecm_ew.insert_with_id(t, key, id).expect("ticks are sorted");
    }
    let exact = |key: Option<u64>, range: u64| {
        let keyed = |i: usize| key.is_none_or(|k| i as u64 % 50 == k);
        let live = ticks.iter().enumerate();
        live.filter(|&(i, &t)| t > now.saturating_sub(range) && keyed(i))
            .count() as f64
    };
    let point = |sk: &dyn SketchReader, range: u64| {
        let answer = sk.query(&Query::point(7), WindowSpec::time(now, range));
        answer.expect("in window").into_value().value
    };
    let (mut eh_worst, mut ew_best) = (0f64, f64::INFINITY);
    let slot = window.div_ceil(buckets as u64);
    let counter = |range| (eh.estimate(now, range), ew.estimate(now, range));
    let sketch = |range| (point(&ecm_eh, range), point(&ecm_ew, range));
    let counters = [50u64, 200, 800, 3_000, 10_000, 50_000, 100_000];
    let counters = counters.map(|range| ("counter", None, range, slot, counter(range)));
    let sketches = [200u64, 800, 3_000, 10_000, 100_000];
    let sketches = sketches.map(|range| ("ecm-sketch", Some(7), range, window / 64, sketch(range)));
    for (level, key, range, slot, (eh_est, ew_est)) in counters.into_iter().chain(sketches) {
        let ex = exact(key, range);
        let eh_err = (eh_est - ex).abs() / ex.max(1.0);
        let ew_err = (ew_est - ex).abs() / ex.max(1.0);
        eh_worst = eh_worst.max(eh_err);
        if range < slot {
            ew_best = ew_best.min(ew_err);
        }
        let cols = "range slot_width exact eh_est eh_relerr ew_est ew_relerr";
        let estimates = [eh_est, eh_err, ew_est, ew_err];
        let values = [&[range as f64, slot as f64, ex][..], &estimates].concat();
        r.row("baseline_equiwidth", &[("level", level)], cols, &values);
    }
    r.claim("s2.eh_within_eps", eh_worst);
    r.claim("s2.equiwidth_unbounded", ew_best);
    r
}

/// **§2 baseline** — hybrid histograms (Qiao et al.) against the dyadic
/// ECM hierarchy (§6.1) on wide, narrow and point range queries; errors are
/// relative to ‖a_r‖₁.
pub fn baseline_hybrid(n: usize) -> Report {
    const KEY_BITS: u32 = 16; // the wc98-like generator draws keys < 50 000
    let mut r = Report::default();
    let events = Dataset::Wc98.generate(n, 42);
    let o = WindowOracle::from_events(&events);
    let (now, eps) = (o.last_tick(), 0.1);
    let mut hierarchy = EcmHierarchy::new(KEY_BITS, &eh_config(eps, 7));
    events.iter().for_each(|e| hierarchy.insert(e.ts, e.key));
    let mut hot: Vec<(u64, u64)> = o.keys().map(|k| (o.frequency(k, now, WINDOW), k)).collect();
    hot.sort_unstable_by(|a, b| b.cmp(a));
    let wide = (0..8u64).map(|i| (i * 8192, (i + 1) * 8192 - 1));
    let narrow = (0..64u64).map(|i| (i * 40, i * 40 + 7));
    let classes: [(&str, Vec<(u64, u64)>); 3] = [
        ("wide", wide.collect()),
        ("narrow", narrow.collect()),
        ("point", hot.iter().take(64).map(|&(_, k)| (k, k)).collect()),
    ];
    let norm = o.total(now, WINDOW) as f64;
    // One row per class; returns the largest max error over the narrow and
    // point classes, and over all three.
    let mut score = |name: &str, bytes: usize, est: &dyn Fn(u64, u64) -> f64| {
        let (mut narrow_point, mut all) = (0f64, 0f64);
        for (class, queries) in &classes {
            let exact = |lo, hi| o.range_sum(lo, hi, now, WINDOW) as f64;
            let err = |&(lo, hi): &(u64, u64)| (est(lo, hi) - exact(lo, hi)).abs() / norm;
            let errs = queries.iter().map(err);
            let (sum, max) = errs.fold((0.0, 0f64), |(s, m), e| (s + e, m.max(e)));
            let values = [sum / queries.len() as f64, max, bytes as f64];
            let labels = [("structure", name), ("class", class)];
            let cols = "avg_err max_err memory_bytes";
            r.row("baseline_hybrid", &labels, cols, &values);
            if *class != "wide" {
                narrow_point = narrow_point.max(max);
            }
            all = all.max(max);
        }
        (narrow_point, all)
    };
    let window = WindowSpec::time(now, WINDOW);
    let range = |lo, hi| {
        hierarchy
            .query(&Query::range_sum(lo, hi), window)
            .expect("in window")
    };
    let est = |lo, hi| range(lo, hi).into_value().value;
    let (hierarchy_max, hierarchy_worst) = score("ecm-hierarchy", hierarchy.memory_bytes(), &est);
    let mut hybrid_over = f64::INFINITY;
    for bins in [256usize, 4096] {
        let mut h = HybridHistogram::new(&HybridConfig::new(eps, WINDOW, 1 << KEY_BITS, bins));
        events.iter().for_each(|e| h.insert(e.ts, e.key));
        let est = |lo, hi| h.range_query(now, WINDOW, lo, hi);
        let (hybrid_max, _) = score(&format!("hybrid-{bins}bins"), h.memory_bytes(), &est);
        hybrid_over = hybrid_over.min(hybrid_max / hierarchy_max);
    }
    r.claim("s2.hybrid_unbounded", hybrid_over);
    r.claim("s2.hierarchy_within_eps", hierarchy_worst);
    r
}

const MONITOR_WINDOW: u64 = 1 << 20;

/// Four EH site sketches for F₂ monitoring, and the self-join function.
fn monitor_nodes() -> (Vec<EcmEh>, SelfJoinFn) {
    let spec = SketchSpec::time(MONITOR_WINDOW).query_kind(QueryKind::InnerProduct);
    let cfg: EcmConfig<Eh> = spec.seed(5).ecm_config().expect("valid spec");
    let nodes = (0..4).map(|i| {
        let mut sk = EcmEh::new(&cfg);
        sk.set_id_namespace(i as u64 + 1);
        sk
    });
    let (width, depth) = (cfg.width, cfg.depth);
    (nodes.collect(), SelfJoinFn { width, depth })
}

/// Run one protocol over `events` and record its row.
fn monitor<P>(r: &mut Report, name: &str, mut p: P, events: &[Event], threshold: f64) -> RunReport
where
    P: MonitoringProtocol,
{
    let run = run_protocol(&mut p, events, threshold);
    let st = run.stats;
    let cols = "syncs balances messages bytes events wrong_side max_delay threshold";
    let sent = [st.syncs, st.balances, st.messages, st.bytes];
    let tracking = [run.events, run.wrong_side_events, run.max_delay_events];
    let values = sent.into_iter().chain(tracking).map(|v| v as f64);
    let values: Vec<f64> = values.chain([threshold]).collect();
    r.row("monitoring", &[("protocol", name)], cols, &values);
    run
}

/// **§6.2** — continuous F₂-threshold monitoring with the geometric method
/// against periodic push and forwarding every event, while a flash crowd
/// drives the self-join across the threshold and expiry brings it back.
pub fn monitoring(n: usize) -> Report {
    let mut r = Report::default();
    let (base, w) = (uniform_sites(n, 4, 11), MONITOR_WINDOW);
    let (target_key, start, duration, volume) = (7, base[n / 2].ts, w / 4, n / 4);
    let crowd = FlashCrowd {
        target_key,
        start,
        duration,
        volume,
        sources: 4,
        seed: 3,
    };
    let events = inject_flash_crowd(&base, &crowd);
    // The threshold sits between the quiet and the burst regime.
    let (nodes, f) = monitor_nodes();
    let mut probe = ForwardAllProtocol::new(nodes, f, f64::INFINITY, w);
    let mut peak = 0f64;
    for &e in &events {
        MonitoringProtocol::observe(&mut probe, e);
        peak = peak.max(MonitoringProtocol::true_global_value(&probe, e.ts));
    }
    let threshold = peak / 4.0;
    let (nodes, f) = monitor_nodes();
    let geometric = GeometricMonitor::new(nodes, f, threshold, w, 0);
    let geometric = monitor(&mut r, "geometric", geometric, &events, threshold);
    let (nodes, f) = monitor_nodes();
    let mut balanced = GeometricMonitor::new(nodes, f, threshold, w, 0);
    balanced.set_balancing(true);
    monitor(&mut r, "geo+balance", balanced, &events, threshold);
    for period in [w / 64, w / 8] {
        let (nodes, f) = monitor_nodes();
        let push = PeriodicPushProtocol::new(nodes, f, threshold, w, period, 0);
        monitor(&mut r, &format!("push-{period}"), push, &events, threshold);
    }
    let (nodes, f) = monitor_nodes();
    let all = ForwardAllProtocol::new(nodes, f, threshold, w);
    let all = monitor(&mut r, "forward-all", all, &events, threshold);
    r.claim("s6_2.geometric_exact", geometric.wrong_side_events as f64);
    let bytes = geometric.stats.bytes as f64 / all.stats.bytes as f64;
    r.claim("s6_2.geometric_cheaper", bytes);
    r
}
