//! The four workloads and how a run is sized.

use std::time::Duration;

use crate::gen::Shape;

/// One traffic mix. Everything the server sees follows from these fields
/// and `--seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Keys, key skew, weighted lines.
    pub shape: Shape,
    /// `SKETCHD_DURABILITY=1` with the WAL at its shipped defaults, and a
    /// `SIGKILL` restart inside set-up.
    pub durable: bool,
    /// Standing views registered and warmed during set-up.
    pub views: usize,
    /// `Some(rate)`: connection 1 writes both lanes open loop at `rate`
    /// batches/s for the whole round while connection 0 reads. `None`:
    /// both connections write closed loop, then connection 0 reads at rest.
    pub paced_batches_per_s: Option<f64>,
    /// Keys whose acked runs are replayed into an in-process store and
    /// compared with the server's answers.
    pub sample_keys: usize,
    /// Logical batches per lane in the preload: touches every key and
    /// spans at least three windows. Sized at the seed commit, then frozen.
    pub preload_batches: u64,
    /// Logical batches per `BATCH` frame during the preload. Frames are
    /// acked once queued, up to 128 of them wait in a shard mailbox as
    /// parsed events, and the allocator keeps that peak for the life of the
    /// process: where the store is small, frames larger than the measured
    /// rounds' make `server_rss_mb` a race (27–42 MiB on `hot-tenants`,
    /// 58–99 MiB on `read-mix` with frames of 16). Where the store is the
    /// peak, larger frames only shorten set-up.
    pub preload_frame: u64,
    /// Closed-loop batches/s per lane at the seed commit. The work of an
    /// ingest segment is `rate × segment seconds`, fixed before the segment
    /// starts, so a run is the same operations whatever the host does.
    pub ingest_batches_per_s: f64,
    /// Depth-32 point queries/s at the seed commit; sizes the pipelined
    /// segment the same way.
    pub pipelined_qps: f64,
    /// Share of a round's seconds given to the ingest, point, pipelined and
    /// top-k segments.
    pub segment_share: [f64; 4],
}

/// Rounds at rest: the ingest segment is what `ingest_meps` and
/// `server_cpu_us_per_event` are taken over and gets the most.
const AT_REST: [f64; 4] = [0.45, 0.2, 0.15, 0.2];
/// Rounds under a paced writer: the writer runs through all of them, so its
/// lead only has to get it going. The seconds go to the pipelined segment,
/// which a batch stalls for ~9 ms every 33 ms: over a third of a second (ten
/// stalls, give or take one) its rate spread 30 % from round to round.
const PACED: [f64; 4] = [0.05, 0.2, 0.55, 0.2];

/// Why each workload exists is recorded in `BENCHMARK.json` and the
/// README; the order here is the order `sketchbench all` runs them in.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot-tenants",
        shape: Shape {
            keys: 32,
            key_skew: 0.4,
            weighted: false,
        },
        durable: false,
        views: 0,
        paced_batches_per_s: None,
        sample_keys: 4,
        preload_batches: 1000,
        preload_frame: 4,
        ingest_batches_per_s: 900.0,
        pipelined_qps: 70_000.0,
        segment_share: AT_REST,
    },
    Workload {
        name: "wide-fleet",
        shape: Shape {
            keys: 2000,
            key_skew: 0.7,
            weighted: false,
        },
        durable: false,
        views: 0,
        paced_batches_per_s: None,
        sample_keys: 32,
        preload_batches: 640,
        preload_frame: 16,
        ingest_batches_per_s: 90.0,
        pipelined_qps: 70_000.0,
        segment_share: AT_REST,
    },
    Workload {
        name: "durable-runs",
        shape: Shape {
            keys: 256,
            key_skew: 0.7,
            weighted: true,
        },
        durable: true,
        views: 0,
        paced_batches_per_s: None,
        sample_keys: 32,
        preload_batches: 320,
        preload_frame: 4,
        ingest_batches_per_s: 200.0,
        pipelined_qps: 70_000.0,
        segment_share: AT_REST,
    },
    Workload {
        name: "read-mix",
        shape: Shape {
            keys: 256,
            key_skew: 0.7,
            weighted: false,
        },
        durable: false,
        views: 8,
        paced_batches_per_s: Some(30.0),
        sample_keys: 32,
        preload_batches: 480,
        preload_frame: 1,
        ingest_batches_per_s: 20.0,
        pipelined_qps: 50_000.0,
        segment_share: PACED,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rate of the open-loop point-query schedule.
pub const POINT_QPS: f64 = 2000.0;
/// Rate of the open-loop `TOPK 10` schedule.
pub const TOPK_PER_S: f64 = 20.0;
/// Requests in flight in the pipelined segment.
pub const PIPELINE_DEPTH: usize = 32;
/// One point-query slot in this many is a `VIEW READ` on `read-mix`.
pub const VIEW_READ_EVERY: u64 = 20;
/// How long a reader under a paced writer polls for a reply before it
/// blocks: several times a reply that was not held up (~15 µs), a fraction
/// of one that was.
pub const PACED_SPIN: Duration = Duration::from_micros(200);

/// How many operations each segment of a round performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPlan {
    /// Logical batches per lane in the ingest segment (seconds of paced
    /// writing before the reads start, on `read-mix`).
    pub ingest_batches: u64,
    /// Seconds the ingest segment is sized for.
    pub ingest_s: f64,
    /// Depth-1 point queries on the open-loop schedule.
    pub point_queries: u64,
    /// Depth-32 pipelined point queries.
    pub pipelined_queries: u64,
    /// `TOPK 10` requests on the open-loop schedule.
    pub topk_queries: u64,
}

/// How a whole run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPlan {
    /// Measured rounds; each metric is the median over them.
    pub rounds: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// The discarded warm-up round.
    pub warmup: RoundPlan,
    /// Every measured round.
    pub round: RoundPlan,
}

impl Workload {
    fn round_plan(&self, seconds: f64) -> RoundPlan {
        let [ingest, point, pipelined, topk] = self.segment_share.map(|share| share * seconds);
        let depth = PIPELINE_DEPTH as f64;
        RoundPlan {
            ingest_batches: (self.ingest_batches_per_s * ingest).round().max(1.0) as u64,
            ingest_s: ingest,
            point_queries: (POINT_QPS * point).round().max(20.0) as u64,
            pipelined_queries: ((self.pipelined_qps * pipelined / depth).round().max(1.0) * depth)
                as u64,
            topk_queries: (TOPK_PER_S * topk).round().max(3.0) as u64,
        }
    }

    /// The plan for `seconds` of measurement split over `rounds`, with
    /// `setups` set-up repetitions; the warm-up is a third of a round.
    pub fn plan(&self, seconds: f64, rounds: usize, setups: usize) -> RunPlan {
        let per_round = seconds / rounds as f64;
        RunPlan {
            rounds,
            setups,
            warmup: self.round_plan(per_round / 3.0),
            round: self.round_plan(per_round),
        }
    }
}
