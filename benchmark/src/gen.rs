//! Frozen inputs: the benchmark's own RNG, Zipf table and wire-byte
//! generator.
//!
//! Nothing here depends on a repo library, so a later change cannot alter
//! the inputs by editing `crates/stream-gen`; `--seed` is the only knob.
//! Every logical batch is a pure function of `(seed, lane, j)` — it can be
//! regenerated in any order, which is what lets the output check, the
//! in-process layer walk and the unit tests see exactly the bytes the
//! server saw.
//!
//! **Trace shape (all workloads).** Keys are split into [`LANES`] lanes
//! (`key index % LANES == lane`); a lane is written by one connection at a
//! time, so every key's ticks are non-decreasing no matter how the two
//! connections interleave. Logical batch `j` of a lane is
//! [`LINES_PER_BATCH`] lines spanning [`TICKS_PER_BATCH`] ticks
//! (`ts = T0 + 100·j + ⌊100·i/1024⌋`), so one [`WINDOW`] is 100 batches per
//! lane and expiry is active as soon as the preload has passed one window:
//! the trace is stationary, and speed is never confounded with fill level.

/// First tick of batch 0.
pub const T0: u64 = 100_000;
/// `SKETCHD_WINDOW` for every workload, and the range of every query.
pub const WINDOW: u64 = 10_000;
/// Data lines per logical batch.
pub const LINES_PER_BATCH: usize = 1024;
/// Ticks one logical batch spans.
pub const TICKS_PER_BATCH: u64 = 100;
/// Size of the item universe.
pub const ITEMS: usize = 50_000;
/// Zipf exponent of the item distribution.
pub const ITEM_SKEW: f64 = 0.85;
/// Key partitions; one connection writes one lane at a time.
pub const LANES: usize = 2;
/// How many leading wire bytes of each lane [`Fnv1aPrefix`] fingerprints.
pub const FNV_PREFIX_BYTES: usize = 1 << 20;

/// SplitMix64 (Steele, Lea, Flood 2014): a 64-bit state, one multiply-xor
/// chain per draw. Small enough to read, good enough for a trace.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output function, also used to derive per-batch seeds.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A generator starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// A uniform draw from `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup in a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The table for `n` ranks with exponent `s` (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over the first [`FNV_PREFIX_BYTES`] bytes fed to it — the
/// `input_fnv` fingerprint every report carries.
#[derive(Debug, Clone)]
pub struct Fnv1aPrefix {
    hash: u64,
    remaining: usize,
}

impl Default for Fnv1aPrefix {
    fn default() -> Self {
        Fnv1aPrefix {
            hash: 0xcbf2_9ce4_8422_2325,
            remaining: FNV_PREFIX_BYTES,
        }
    }
}

impl Fnv1aPrefix {
    /// Absorb `bytes` (ignored once the prefix is full).
    pub fn feed(&mut self, bytes: &[u8]) {
        let take = bytes.len().min(self.remaining);
        for &b in &bytes[..take] {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.remaining -= take;
    }

    /// The fingerprint so far.
    pub fn value(&self) -> u64 {
        self.hash
    }
}

/// What distinguishes one workload's trace from another's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Total keys (split evenly over the lanes).
    pub keys: usize,
    /// Zipf exponent of the key distribution inside a lane.
    pub key_skew: f64,
    /// Whether lines carry an occurrence count `n` (geometric, mean 8,
    /// capped at 32) instead of a single occurrence.
    pub weighted: bool,
}

/// One occurrence run of a sampled key, kept for the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleEvent {
    /// Key index (see [`Generator::key_name`]).
    pub key: u32,
    /// Arrival tick.
    pub ts: u64,
    /// Stream item.
    pub item: u64,
    /// Occurrences.
    pub n: u64,
}

/// The trace generator for one `(seed, shape)`.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    shape: Shape,
    items: Zipf,
    lane_keys: Zipf,
    names: Vec<String>,
    sampled: Vec<bool>,
}

/// Append `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

impl Generator {
    /// A generator whose [`lines`](Self::lines) also record every run of
    /// the keys in `sample_keys`.
    pub fn new(seed: u64, shape: Shape, sample_keys: &[usize]) -> Self {
        assert!(
            shape.keys >= LANES && shape.keys.is_multiple_of(LANES),
            "keys must split evenly over the lanes"
        );
        let mut sampled = vec![false; shape.keys];
        for &k in sample_keys {
            sampled[k] = true;
        }
        Generator {
            seed,
            shape,
            items: Zipf::new(ITEMS, ITEM_SKEW),
            lane_keys: Zipf::new(shape.keys / LANES, shape.key_skew),
            names: (0..shape.keys).map(|i| format!("t{i:04}")).collect(),
            sampled,
        }
    }

    /// The wire name of key `index`.
    pub fn key_name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// The tick every lane has reached once it has sent batches `0..j`:
    /// the last tick of batch `j − 1`, which no later line precedes.
    pub fn clock(j: u64) -> u64 {
        T0 + TICKS_PER_BATCH * j - 1
    }

    fn batch_rng(&self, stream: u64, lane: usize, j: u64) -> SplitMix64 {
        SplitMix64::new(mix64(self.seed) ^ mix64(stream << 60 | (lane as u64) << 48 | j))
    }

    /// Append logical batch `j` of `lane` as data lines (no `BATCH`
    /// header), recording sampled keys' runs; returns the occurrences the
    /// lines carry.
    pub fn lines(
        &self,
        lane: usize,
        j: u64,
        out: &mut Vec<u8>,
        sampled: &mut Vec<SampleEvent>,
    ) -> u64 {
        let mut rng = self.batch_rng(0, lane, j);
        let base = T0 + TICKS_PER_BATCH * j;
        let mut occurrences = 0;
        for i in 0..LINES_PER_BATCH {
            let key = self.lane_keys.sample(&mut rng) * LANES + lane;
            let item = self.items.sample(&mut rng) as u64;
            let ts = base + TICKS_PER_BATCH * i as u64 / LINES_PER_BATCH as u64;
            let n = if self.shape.weighted {
                // Geometric with success probability 1/8 (mean 8), capped.
                let u = 1.0 - rng.next_f64();
                (1 + (u.ln() / (1.0f64 - 0.125).ln()) as u64).min(32)
            } else {
                1
            };
            out.extend_from_slice(self.names[key].as_bytes());
            out.push(b' ');
            push_u64(out, ts);
            out.push(b' ');
            push_u64(out, item);
            if self.shape.weighted {
                out.push(b' ');
                push_u64(out, n);
            }
            out.push(b'\n');
            occurrences += n;
            if self.sampled[key] {
                sampled.push(SampleEvent {
                    key: key as u32,
                    ts,
                    item,
                    n,
                });
            }
        }
        occurrences
    }

    /// Append one `BATCH` frame carrying logical batches `from..to` of
    /// `lane`; returns its occurrences.
    pub fn frame(
        &self,
        lane: usize,
        from: u64,
        to: u64,
        out: &mut Vec<u8>,
        sampled: &mut Vec<SampleEvent>,
    ) -> u64 {
        out.extend_from_slice(b"BATCH ");
        push_u64(out, (to - from) * LINES_PER_BATCH as u64);
        out.push(b'\n');
        (from..to).map(|j| self.lines(lane, j, out, sampled)).sum()
    }

    /// The request line (newline-terminated) of the `index`-th point query
    /// of the run, asked at tick `now` over one full window. Keys and items
    /// follow the ingest distributions, so most answers are non-zero.
    pub fn point_query(&self, index: u64, now: u64) -> Vec<u8> {
        let mut rng = self.batch_rng(1, 0, index);
        let lane = (rng.next_u64() % LANES as u64) as usize;
        let key = self.lane_keys.sample(&mut rng) * LANES + lane;
        let item = self.items.sample(&mut rng) as u64;
        format!(
            "QUERY {} point {item} time {now} {WINDOW}
",
            self.names[key]
        )
        .into_bytes()
    }
}

/// The host-speed probe: a fixed piece of the generator itself, timed.
///
/// On a shared host everything runs 25–30 % faster for a few minutes at a
/// time and then slower again, with no steal reported — enough to push the
/// spread of ten same-code runs past any usable bound. The probe is frozen
/// code on frozen inputs that no change to the server can touch, it runs
/// between rounds while the server is idle, and its cost moved with the
/// server's (correlation 0.8–0.97 over ten runs that straddled such a
/// phase). Dividing it out leaves what the server itself costs.
#[derive(Debug, Clone)]
pub struct HostProbe {
    gen: Generator,
}

/// Nanoseconds per generated line of the probe on the box and in the
/// conditions the benchmark was defined on; a run's `host_speed` is this
/// over what it measures.
pub const PROBE_REFERENCE_NS_PER_LINE: f64 = 120.0;
/// Logical batches each of the two probe threads generates per sample.
const PROBE_BATCHES: u64 = 192;
/// Batches generated before the clock starts: a core that sat idle through
/// a lightly loaded round needs a few milliseconds to come back to speed,
/// and the probe is after the host's speed, not its wake-up.
const PROBE_WARMUP_BATCHES: u64 = 64;

impl Default for HostProbe {
    fn default() -> Self {
        let shape = Shape {
            keys: 32,
            key_skew: 0.4,
            weighted: false,
        };
        HostProbe {
            gen: Generator::new(0x5eed, shape, &[]),
        }
    }
}

impl HostProbe {
    /// One sample: both lanes generated at once on two threads (the server
    /// uses both cores), mean nanoseconds per line.
    pub fn sample(&self) -> f64 {
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..LANES)
                .map(|lane| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(LINES_PER_BATCH * 24);
                        let mut generate = |from: u64, to: u64| {
                            for j in from..to {
                                out.clear();
                                self.gen.lines(lane, j, &mut out, &mut Vec::new());
                                std::hint::black_box(&out);
                            }
                        };
                        generate(0, PROBE_WARMUP_BATCHES);
                        let started = std::time::Instant::now();
                        generate(0, PROBE_BATCHES);
                        started.elapsed().as_nanos() as f64
                            / (PROBE_BATCHES * LINES_PER_BATCH as u64) as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const SHAPE: Shape = Shape {
        keys: 32,
        key_skew: 0.4,
        weighted: true,
    };

    fn wire(seed: u64, lane: usize, batches: u64) -> Vec<u8> {
        let gen = Generator::new(seed, SHAPE, &[]);
        let mut out = Vec::new();
        for j in 0..batches {
            gen.frame(lane, j, j + 1, &mut out, &mut Vec::new());
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(wire(1, 0, 4), wire(1, 0, 4));
        assert_ne!(wire(1, 0, 4), wire(2, 0, 4));
        assert_ne!(wire(1, 0, 4), wire(1, 1, 4));
        let mut a = Fnv1aPrefix::default();
        a.feed(&wire(1, 0, 4));
        let mut b = Fnv1aPrefix::default();
        b.feed(&wire(2, 0, 4));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn per_key_ticks_never_decrease_and_lanes_own_their_keys() {
        let gen = Generator::new(3, SHAPE, &[]);
        let mut last: HashMap<String, u64> = HashMap::new();
        for lane in 0..LANES {
            let mut out = Vec::new();
            for j in 0..6 {
                gen.lines(lane, j, &mut out, &mut Vec::new());
            }
            for line in std::str::from_utf8(&out).unwrap().lines() {
                let toks: Vec<&str> = line.split(' ').collect();
                assert_eq!(toks.len(), 4, "weighted lines carry a count");
                let index: usize = toks[0][1..].parse().unwrap();
                assert_eq!(index % LANES, lane);
                let ts: u64 = toks[1].parse().unwrap();
                let seen = last.entry(toks[0].to_string()).or_insert(0);
                assert!(ts >= *seen, "{} went back from {seen} to {ts}", toks[0]);
                *seen = ts;
                assert!(ts <= Generator::clock(6));
                let n: u64 = toks[3].parse().unwrap();
                assert!((1..=32).contains(&n));
            }
        }
    }

    #[test]
    fn sampled_runs_match_the_wire() {
        let gen = Generator::new(5, SHAPE, &[0, 1]);
        let (mut out, mut sampled) = (Vec::new(), Vec::new());
        let occurrences = gen.frame(0, 0, 2, &mut out, &mut sampled);
        let text = std::str::from_utf8(&out).unwrap();
        assert!(text.starts_with("BATCH 2048\n"));
        let on_wire: u64 = text
            .lines()
            .skip(1)
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(on_wire, occurrences);
        let t0000 = text.lines().filter(|l| l.starts_with("t0000 ")).count();
        assert_eq!(sampled.iter().filter(|e| e.key == 0).count(), t0000);
        assert!(
            sampled.iter().all(|e| e.key == 0),
            "lane 0 never writes t0001"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.85);
        let mut rng = SplitMix64::new(9);
        let mut low = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        assert!(low > 1500, "top-10 share was {low}/10000");
    }
}
