//! One run of one workload against separately spawned `sketchd` processes:
//! set-up, a discarded warm-up, measured rounds and the output check, on
//! each of a few server incarnations.
//!
//! Every operation of a run is fixed before it starts (the counts come from
//! [`Workload::plan`]), so two runs with one seed send the same requests in
//! the same order whatever the host does in between; only the clock
//! readings differ. Each metric is computed per round and reported as the
//! median over rounds.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::check::{misses, Expected, Oracle};
use crate::env::StealMeter;
use crate::gen::{
    Fnv1aPrefix, Generator, HostProbe, SampleEvent, LANES, LINES_PER_BATCH,
    PROBE_REFERENCE_NS_PER_LINE, WINDOW,
};
use crate::proc::{out_dir, ServerSpec, Sketchd};
use crate::stats::{median, percentile_us};
use crate::trace::{SpanId, Spans};
use crate::wire::{is_ok, json_number, json_numbers, Conn};
use crate::workload::{
    RoundPlan, RunPlan, Workload, PACED_SPIN, PIPELINE_DEPTH, POINT_QPS, TOPK_PER_S,
    VIEW_READ_EVERY,
};

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The workload that ran.
    pub workload: &'static Workload,
    /// `--seed`.
    pub seed: u64,
    /// How the run was sized.
    pub plan: RunPlan,
    /// Per-round metrics: one value per measured round, in round order.
    pub rounds: BTreeMap<&'static str, Vec<f64>>,
    /// The same metrics over the rounds measured with span recording on
    /// (empty in an untraced run).
    pub traced_rounds: BTreeMap<&'static str, Vec<f64>>,
    /// Per-incarnation metrics (`setup_s`, `server_rss_mb`,
    /// `wal.recovery_s`): one value per server process, in order.
    pub incarnations: BTreeMap<&'static str, Vec<f64>>,
    /// Once-per-run numbers: `STATS` deltas, client-side counts.
    pub scalars: BTreeMap<&'static str, f64>,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Replies that were not `"ok":true`, plus output-check misses.
    pub failed: u64,
    /// FNV-1a of the first MiB of wire bytes of each lane.
    pub input_fnv: [u64; LANES],
    /// Client-side spans (empty unless traced).
    pub spans: Spans,
}

/// One round's `(metric, value)` rows.
type Row = Vec<(&'static str, f64)>;
/// When each request of a closed loop was sent and answered.
type Rtts = Vec<(Instant, Instant)>;

/// Pre-generated set-up traffic, shared by the incarnations.
struct Preload {
    frames: [Vec<Vec<u8>>; LANES],
    samples: Vec<SampleEvent>,
}

/// Requests sent, replies that were not ok, and how late the open-loop
/// generators ran.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lag_ns: Vec<u64>,
}

impl Tally {
    /// Count one request and, when its reply is not `"ok":true`, one
    /// failure. A dead connection ends the run instead.
    fn note(&mut self, reply: io::Result<&[u8]>) -> Result<(), String> {
        self.attempted += 1;
        match reply {
            Ok(line) => {
                if !is_ok(line) {
                    self.failed += 1;
                }
                Ok(())
            }
            Err(e) => Err(io_err(e)),
        }
    }

    fn absorb(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lag_ns.append(&mut other.lag_ns);
    }
}

/// What the paced writer of one round did.
struct Written {
    samples: Vec<SampleEvent>,
    occurrences: u64,
    wire_bytes: u64,
    rtts: Rtts,
    tally: Tally,
    gen_ns: u64,
}

/// What the read segments borrow from the bench: connection 0 and the
/// shared counters, while connection 1 may be writing.
struct Reader<'a> {
    conn: &'a mut Conn,
    gen: &'a Generator,
    w: &'a Workload,
    query_index: &'a mut u64,
    /// Logical batches the lanes have sent: the clock reads ask about.
    progress: &'a AtomicU64,
    server: &'a Sketchd,
    spans: &'a mut Spans,
}

/// One server incarnation between its set-up and its final check.
struct Bench {
    w: &'static Workload,
    gen: Generator,
    server: Sketchd,
    conns: Vec<Conn>,
    /// Logical batches every lane has sent; lanes advance in lockstep.
    next_batch: u64,
    oracle: Oracle,
    query_index: u64,
    tally: Tally,
    /// Nanoseconds spent generating, and the occurrences generated and
    /// sent with the bytes of their frames, since set-up.
    gen_ns: u64,
    occurrences: u64,
    wire_bytes: u64,
    spans: Spans,
}

fn io_err(e: io::Error) -> String {
    format!("connection to sketchd failed: {e}")
}

/// Sleep until shortly before `due`, then spin: `thread::sleep` alone
/// overshoots by more than a loopback round trip takes.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How late the generator itself sent a request that was due at `due`:
/// time past the later of `due` and the previous reply. A request held back
/// because the previous reply was still outstanding is the server's
/// lateness — it shows in the latency, which runs from `due` — not the
/// generator's.
fn lateness(sent: Instant, due: Instant, previous_reply: Option<Instant>) -> u64 {
    let free = previous_reply.map_or(due, |at| at.max(due));
    sent.saturating_duration_since(free).as_nanos() as u64
}

fn view_name(i: usize) -> String {
    format!("v{i}")
}

/// Closed loop on one connection: send each frame, wait for its ack.
fn send_frames(conn: &mut Conn, frames: &[Vec<u8>]) -> Result<(Rtts, Tally), String> {
    let mut rtts = Vec::with_capacity(frames.len());
    let mut tally = Tally::default();
    for frame in frames {
        let sent = Instant::now();
        conn.send(frame).map_err(io_err)?;
        tally.note(conn.recv())?;
        rtts.push((sent, Instant::now()));
    }
    Ok((rtts, tally))
}

/// Each connection sends its lane's frames closed loop, both at once.
fn send_lanes(conns: &mut [Conn], lanes: &[Vec<Vec<u8>>; LANES]) -> Result<(Rtts, Tally), String> {
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes)
            .map(|(conn, frames)| s.spawn(move || send_frames(conn, frames)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let (mut rtts, mut tally) = (Vec::new(), Tally::default());
    for result in results {
        let (lane_rtts, lane_tally) = result?;
        rtts.extend(lane_rtts);
        tally.absorb(lane_tally);
    }
    Ok((rtts, tally))
}

/// Send every question, collecting the replies as strings.
fn ask(conn: &mut Conn, expected: &[Expected]) -> Result<Vec<String>, String> {
    expected
        .iter()
        .map(|e| conn.call(&e.request).map_err(io_err))
        .collect()
}

/// `(published_reads, fallback_reads)` of `STATS`, summed over the shards.
fn read_counters(conn: &mut Conn, tally: &mut Tally) -> Result<(f64, f64), String> {
    let stats = conn.call("STATS").map_err(io_err)?;
    tally.note(Ok(stats.as_bytes()))?;
    let sum = |field| json_numbers(&stats, field).sum::<f64>();
    Ok((sum("published_reads"), sum("fallback_reads")))
}

/// The write side of a round as metrics, and its batches as spans.
fn ingest_rows(
    out: &mut Row,
    spans: &mut Spans,
    segment: Option<SpanId>,
    round: u32,
    rtts: Rtts,
    occurrences: u64,
    (wall_s, cpu_s): (f64, f64),
) {
    let mut rtt_ns = Vec::with_capacity(rtts.len());
    for (sent, acked) in rtts {
        rtt_ns.push((acked - sent).as_nanos() as u64);
        spans.push("batch", sent, acked, segment, round);
    }
    out.push(("ingest_meps", occurrences as f64 / wall_s / 1e6));
    out.push(("server_cpu_us_per_event", cpu_s * 1e6 / occurrences as f64));
    out.push(("client.batch_rtt_p50_us", percentile_us(&mut rtt_ns, 50.0)));
}

impl Bench {
    /// Exec a fresh server and bring it to the measured state (`spans` is
    /// the run's span log, handed from incarnation to incarnation): first
    /// `PING`, preload acked, `FLUSH`; on a durable workload also `SIGKILL`
    /// → respawn → every sampled answer correct; on a workload with views,
    /// views registered and warmed. Returns the bench and the seconds it
    /// took, plus the recovery seconds of the respawn (0 when there was
    /// none).
    fn setup(
        w: &'static Workload,
        gen: &Generator,
        spec: &ServerSpec,
        preload: &Preload,
        sample: &[usize],
        spans: Spans,
    ) -> Result<(Bench, f64, f64), String> {
        let started = Instant::now();
        let mut server = Sketchd::spawn(spec)?;
        let mut conns = vec![Conn::connect(server.addr).map_err(io_err)?];
        let mut tally = Tally::default();
        conns[0].send(b"PING\n").map_err(io_err)?;
        tally.note(conns[0].recv())?;
        conns.push(Conn::connect(server.addr).map_err(io_err)?);
        tally.absorb(send_lanes(&mut conns, &preload.frames)?.1);
        let now = Generator::clock(w.preload_batches);
        conns[0]
            .send(format!("FLUSH {now}\n").as_bytes())
            .map_err(io_err)?;
        tally.note(conns[0].recv())?;

        let mut oracle = Oracle::new(sample);
        oracle.apply(gen, &preload.samples);
        let mut recovery_s = 0.0;
        if w.durable {
            // Crash with everything acked, come back from checkpoint + WAL
            // tail, and require every sampled answer to be served again.
            // The FLUSH above is not logged, so the restarted clocks differ
            // and `now` is left out of the comparison.
            let expected = oracle.expected(gen, now);
            drop(conns);
            server.kill();
            let respawned = Instant::now();
            server = Sketchd::spawn(spec)?;
            conns = Vec::new();
            for _ in 0..LANES {
                conns.push(Conn::connect(server.addr).map_err(io_err)?);
            }
            conns[0].send(b"PING\n").map_err(io_err)?;
            tally.note(conns[0].recv())?;
            recovery_s = respawned.elapsed().as_secs_f64();
            let replies = ask(&mut conns[0], &expected)?;
            tally.attempted += expected.len() as u64;
            tally.failed += misses(&expected, &replies, true);
        } else {
            oracle.flush(now);
        }
        for i in 0..w.views {
            // Half threshold views on sampled keys' totals, half fleet
            // top-k views; a first read warms each out of its cold state.
            let name = view_name(i);
            let create = if i % 2 == 0 {
                let key = gen.key_name(sample[i % sample.len()]);
                format!("VIEW CREATE {name} threshold {key} total 1000 time {WINDOW}\n")
            } else {
                format!("VIEW CREATE {name} topk 10 time {WINDOW}\n")
            };
            for request in [create, format!("VIEW READ {name}\n")] {
                conns[0].send(request.as_bytes()).map_err(io_err)?;
                tally.note(conns[0].recv())?;
            }
        }
        let setup_s = started.elapsed().as_secs_f64();
        let bench = Bench {
            w,
            gen: gen.clone(),
            server,
            conns,
            next_batch: w.preload_batches,
            oracle,
            query_index: 0,
            tally,
            gen_ns: 0,
            occurrences: 0,
            wire_bytes: 0,
            spans,
        };
        Ok((bench, setup_s, recovery_s))
    }

    /// `FLUSH` to the lanes' common clock: every accepted batch is applied
    /// and published when it returns, and the oracle advances with it.
    fn flush(&mut self) -> Result<(), String> {
        let now = Generator::clock(self.next_batch);
        self.conns[0]
            .send(format!("FLUSH {now}\n").as_bytes())
            .map_err(io_err)?;
        self.tally.note(self.conns[0].recv())?;
        self.oracle.flush(now);
        Ok(())
    }

    /// Closed-loop ingest: each connection sends its lane's frames (one
    /// logical batch each, generated before the clock starts), waiting for
    /// every ack; the segment ends when a `FLUSH` has drained both shards.
    fn ingest_segment(
        &mut self,
        plan: &RoundPlan,
        round: u32,
        out: &mut Row,
    ) -> Result<(), String> {
        let generating = Instant::now();
        let mut samples = Vec::new();
        let mut occurrences = 0;
        let mut lanes: [Vec<Vec<u8>>; LANES] = Default::default();
        for (lane, frames) in lanes.iter_mut().enumerate() {
            for j in self.next_batch..self.next_batch + plan.ingest_batches {
                let mut frame = Vec::with_capacity(LINES_PER_BATCH * 24);
                occurrences += self.gen.frame(lane, j, j + 1, &mut frame, &mut samples);
                frames.push(frame);
            }
        }
        self.gen_ns += generating.elapsed().as_nanos() as u64;
        self.wire_bytes += lanes.iter().flatten().map(|f| f.len() as u64).sum::<u64>();

        let cpu0 = self.server.cpu_seconds();
        let started = Instant::now();
        let segment = self.spans.open("ingest_segment", started, round);
        let (rtts, tally) = send_lanes(&mut self.conns, &lanes)?;
        self.tally.absorb(tally);
        self.next_batch += plan.ingest_batches;
        self.oracle.apply(&self.gen, &samples);
        self.flush()?;
        let ended = Instant::now();
        let cpu = self.server.cpu_seconds() - cpu0;
        self.spans.close(segment, ended);
        self.occurrences += occurrences;
        let wall = (ended - started).as_secs_f64();
        ingest_rows(
            out,
            &mut self.spans,
            segment,
            round,
            rtts,
            occurrences,
            (wall, cpu),
        );
        Ok(())
    }

    /// Open-loop paced writer for `read-mix`: connection 1 alternates the
    /// lanes at a fixed rate until `stop`, finishing the pair it is on.
    fn paced_writer(
        conn: &mut Conn,
        gen: &Generator,
        first_batch: u64,
        rate: f64,
        stop: &AtomicBool,
        progress: &AtomicU64,
    ) -> Result<Written, String> {
        let mut written = Written {
            samples: Vec::new(),
            occurrences: 0,
            wire_bytes: 0,
            rtts: Vec::new(),
            tally: Tally::default(),
            gen_ns: 0,
        };
        let started = Instant::now();
        let mut frame = Vec::with_capacity(LINES_PER_BATCH * 24);
        let mut k: u64 = 0;
        loop {
            let lane = (k % LANES as u64) as usize;
            if lane == 0 && stop.load(Ordering::SeqCst) {
                return Ok(written);
            }
            let j = first_batch + k / LANES as u64;
            frame.clear();
            let generating = Instant::now();
            written.occurrences += gen.frame(lane, j, j + 1, &mut frame, &mut written.samples);
            written.gen_ns += generating.elapsed().as_nanos() as u64;
            written.wire_bytes += frame.len() as u64;
            let due = started + Duration::from_secs_f64(k as f64 / rate);
            wait_until(due);
            let sent = Instant::now();
            conn.send(&frame).map_err(io_err)?;
            written.tally.note(conn.recv())?;
            let previous = written.rtts.last().map(|&(_, acked)| acked);
            written.tally.lag_ns.push(lateness(sent, due, previous));
            written.rtts.push((sent, Instant::now()));
            k += 1;
            progress.store(first_batch + k / LANES as u64, Ordering::SeqCst);
        }
    }

    /// The three read segments on connection 0. `now` is read before every
    /// request so that reads under a live writer ask about its clock.
    fn read_segments(
        reader: Reader<'_>,
        plan: &RoundPlan,
        round: u32,
        out: &mut Row,
    ) -> Result<Tally, String> {
        let Reader {
            conn,
            gen,
            w,
            query_index,
            progress,
            server,
            spans,
        } = reader;
        let mut tally = Tally::default();
        let now = || Generator::clock(progress.load(Ordering::SeqCst));

        // The client polls for replies (see `Conn::set_spin`): at rest for as
        // long as it takes; under a live writer, where a reply held up
        // behind a batch takes milliseconds and the shard workers need both
        // cores meanwhile, for `PACED_SPIN` and then it blocks.
        let spin = match w.paced_batches_per_s {
            None => Duration::MAX,
            Some(_) => PACED_SPIN,
        };
        conn.set_spin(Some(spin)).map_err(io_err)?;
        // Depth 1, open loop at POINT_QPS; latency from the due time. The
        // server's read counters are taken around this segment: its reads
        // arrive on a schedule, so the share of them the freshness gate sent
        // to the mailbox is the share of time a shard had a write pending (a
        // closed loop would count few, because each fallback stalls it).
        let reads_before = read_counters(conn, &mut tally)?;
        let (mut point_ns, mut view_ns) = (Vec::new(), Vec::new());
        let mut previous = None;
        let started = Instant::now();
        let segment = spans.open("point_segment", started, round);
        for i in 0..plan.point_queries {
            let view_slot = w.views > 0 && i % VIEW_READ_EVERY == VIEW_READ_EVERY - 1;
            let request = if view_slot {
                let view = (i / VIEW_READ_EVERY) as usize % w.views;
                format!("VIEW READ {}\n", view_name(view)).into_bytes()
            } else {
                *query_index += 1;
                gen.point_query(*query_index, now())
            };
            let due = started + Duration::from_secs_f64(i as f64 / POINT_QPS);
            wait_until(due);
            let sent = Instant::now();
            conn.send(&request).map_err(io_err)?;
            tally.note(conn.recv())?;
            let done = Instant::now();
            tally.lag_ns.push(lateness(sent, due, previous));
            previous = Some(done);
            let latency = (done - due).as_nanos() as u64;
            if view_slot {
                view_ns.push(latency);
                spans.push("view_read", sent, done, segment, round);
            } else {
                point_ns.push(latency);
                spans.push("point_query", sent, done, segment, round);
            }
        }
        spans.close(segment, Instant::now());
        let reads_after = read_counters(conn, &mut tally)?;
        let published = reads_after.0 - reads_before.0;
        let fallback = reads_after.1 - reads_before.1;
        out.push((
            "engine.fallback_read_share",
            fallback / (published + fallback).max(1.0),
        ));
        out.push(("query_p50_us", percentile_us(&mut point_ns, 50.0)));
        out.push(("client.query_p99_us", percentile_us(&mut point_ns, 99.0)));
        out.push(("client.view_read_p50_us", percentile_us(&mut view_ns, 50.0)));

        // Depth 32, closed loop: write a window of requests, read its
        // replies, repeat.
        let mut window = Vec::new();
        let cpu0 = server.cpu_seconds();
        let started = Instant::now();
        let segment = spans.open("pipelined_segment", started, round);
        for _ in 0..plan.pipelined_queries / PIPELINE_DEPTH as u64 {
            window.clear();
            for _ in 0..PIPELINE_DEPTH {
                *query_index += 1;
                window.extend_from_slice(&gen.point_query(*query_index, now()));
            }
            let sent = Instant::now();
            conn.send(&window).map_err(io_err)?;
            for _ in 0..PIPELINE_DEPTH {
                tally.note(conn.recv())?;
                spans.push("pipelined_query", sent, Instant::now(), segment, round);
            }
        }
        let ended = Instant::now();
        let cpu = server.cpu_seconds() - cpu0;
        spans.close(segment, ended);
        let wall = (ended - started).as_secs_f64();
        out.push(("query_kqps", plan.pipelined_queries as f64 / wall / 1e3));
        out.push((
            "client.cpu_us_per_pipelined_query",
            cpu * 1e6 / plan.pipelined_queries as f64,
        ));

        // TOPK 10, open loop at TOPK_PER_S; latency from the due time.
        let mut topk_ns = Vec::new();
        let started = Instant::now();
        let segment = spans.open("topk_segment", started, round);
        for i in 0..plan.topk_queries {
            let due = started + Duration::from_secs_f64(i as f64 / TOPK_PER_S);
            wait_until(due);
            let request = format!("TOPK 10 time {} {WINDOW}\n", now());
            let sent = Instant::now();
            conn.send(request.as_bytes()).map_err(io_err)?;
            tally.note(conn.recv())?;
            let done = Instant::now();
            topk_ns.push((done - due).as_nanos() as u64);
            spans.push("topk", sent, done, segment, round);
        }
        spans.close(segment, Instant::now());
        conn.set_spin(None).map_err(io_err)?;
        out.push(("topk_p50_us", percentile_us(&mut topk_ns, 50.0)));
        out.push(("client.topk_p90_us", percentile_us(&mut topk_ns, 90.0)));
        Ok(tally)
    }

    /// One round: ingest then reads at rest, or (paced workloads) reads
    /// under a live writer.
    fn round(&mut self, plan: &RoundPlan, round: u32) -> Result<Row, String> {
        let mut out = Vec::new();
        let progress = AtomicU64::new(self.next_batch);
        let Some(rate) = self.w.paced_batches_per_s else {
            self.ingest_segment(plan, round, &mut out)?;
            progress.store(self.next_batch, Ordering::SeqCst);
            let reader = Reader {
                conn: &mut self.conns[0],
                gen: &self.gen,
                w: self.w,
                query_index: &mut self.query_index,
                progress: &progress,
                server: &self.server,
                spans: &mut self.spans,
            };
            let read = Bench::read_segments(reader, plan, round, &mut out)?;
            self.tally.absorb(read);
            return Ok(out);
        };

        let stop = AtomicBool::new(false);
        let cpu0 = self.server.cpu_seconds();
        let started = Instant::now();
        let segment = self.spans.open("paced_ingest", started, round);
        let (reader, writer) = self.conns.split_at_mut(1);
        let (gen, first_batch) = (&self.gen, self.next_batch);
        let reader = Reader {
            conn: &mut reader[0],
            gen,
            w: self.w,
            query_index: &mut self.query_index,
            progress: &progress,
            server: &self.server,
            spans: &mut self.spans,
        };
        let (read, written) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                Bench::paced_writer(&mut writer[0], gen, first_batch, rate, &stop, &progress)
            });
            // The writer runs alone for the ingest segment's share of the
            // round, so the round has the shape of the other workloads'.
            std::thread::sleep(Duration::from_secs_f64(plan.ingest_s));
            let read = Bench::read_segments(reader, plan, round, &mut out);
            stop.store(true, Ordering::SeqCst);
            (read, writer.join().expect("writer thread panicked"))
        });
        self.tally.absorb(read?);
        let written = written?;
        self.tally.absorb(written.tally);
        self.next_batch = progress.load(Ordering::SeqCst);
        self.oracle.apply(&self.gen, &written.samples);
        self.flush()?;
        let ended = Instant::now();
        let cpu = self.server.cpu_seconds() - cpu0;
        self.spans.close(segment, ended);
        self.occurrences += written.occurrences;
        self.wire_bytes += written.wire_bytes;
        self.gen_ns += written.gen_ns;
        let wall = (ended - started).as_secs_f64();
        ingest_rows(
            &mut out,
            &mut self.spans,
            segment,
            round,
            written.rtts,
            written.occurrences,
            (wall, cpu),
        );
        Ok(out)
    }

    /// The final output check: `FLUSH` has run, so every shard clock reads
    /// the lanes' common tick and replies must match byte for byte.
    fn final_check(&mut self) -> Result<(), String> {
        let now = Generator::clock(self.next_batch);
        let expected = self.oracle.expected(&self.gen, now);
        let replies = ask(&mut self.conns[0], &expected)?;
        self.tally.attempted += expected.len() as u64;
        self.tally.failed += misses(&expected, &replies, false);
        Ok(())
    }

    fn stats(&mut self) -> Result<String, String> {
        let reply = self.conns[0].call("STATS").map_err(io_err)?;
        self.tally.note(Ok(reply.as_bytes()))?;
        Ok(reply)
    }
}

/// Regroup per-round rows by metric name.
fn by_name(rounds: &[Row]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for &(name, value) in round {
            values.entry(name).or_default().push(value);
        }
    }
    values
}

/// The evenly spread key sample of a workload.
pub fn sample_keys(w: &Workload) -> Vec<usize> {
    (0..w.sample_keys)
        .map(|i| i * w.shape.keys / w.sample_keys)
        .collect()
}

/// Run `w` once: `plan.setups` server incarnations, each set up from
/// scratch, warmed up, measured for its share of the rounds and checked.
/// The last `traced_rounds` rounds of the run are measured with span
/// recording on.
///
/// Spreading the rounds over fresh servers matters on a shared host: part
/// of what varies between runs sticks to a process for its lifetime (where
/// its threads and memory landed), and the median over rounds of several
/// incarnations sees several draws of it instead of one.
pub fn run(
    w: &'static Workload,
    seed: u64,
    plan: RunPlan,
    traced_rounds: usize,
    sketchd: &std::path::Path,
) -> Result<RunReport, String> {
    let sample = sample_keys(w);
    let gen = Generator::new(seed, w.shape, &sample);
    let mut preload = Preload {
        frames: Default::default(),
        samples: Vec::new(),
    };
    let mut input_fnv = [0; LANES];
    for (lane, fingerprint) in input_fnv.iter_mut().enumerate() {
        let mut fnv = Fnv1aPrefix::default();
        let mut j = 0;
        while j < w.preload_batches {
            let to = (j + w.preload_frame).min(w.preload_batches);
            let mut frame = Vec::new();
            gen.frame(lane, j, to, &mut frame, &mut preload.samples);
            fnv.feed(&frame);
            preload.frames[lane].push(frame);
            j = to;
        }
        *fingerprint = fnv.value();
    }

    let data_dir = w
        .durable
        .then(|| out_dir().join(format!("data-{}", std::process::id())));
    let spec = ServerSpec {
        bin: sketchd.to_path_buf(),
        data_dir: data_dir.clone(),
    };

    let incarnations = plan.setups.max(1);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut setups, mut recoveries, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let (mut wire, mut occurrences) = (0, 0);
    let (mut gen_ns, mut generated) = (0, 0);
    let mut scalars: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = Spans::new(traced_rounds > 0);
    let probe = HostProbe::default();
    let mut probed = Vec::new();
    let mut round = 0;
    for incarnation in 0..incarnations {
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let (mut bench, setup_s, recovery_s) =
            Bench::setup(w, &gen, &spec, &preload, &sample, spans)?;
        setups.push(setup_s);
        recoveries.push(recovery_s);
        bench.spans.set(false);
        bench.round(&plan.warmup, 0)?;
        let (wire0, occurrences0) = (bench.wire_bytes, bench.occurrences);
        // This incarnation's share of the rounds, earlier ones first.
        let until = plan.rounds * (incarnation + 1) / incarnations;
        // The host is probed around every round, while the server is idle.
        probed.push(probe.sample());
        while round < until {
            let on = round + traced_rounds >= plan.rounds;
            bench.spans.set(on);
            round += 1;
            let steal = StealMeter::start();
            let mut row = bench.round(&plan.round, round as u32)?;
            row.push(("client.round_steal_pct", steal.pct()));
            if on { &mut traced } else { &mut plain }.push(row);
            probed.push(probe.sample());
        }
        bench.spans.set(false);
        wire += bench.wire_bytes - wire0;
        occurrences += bench.occurrences - occurrences0;
        let after = bench.stats()?;
        bench.final_check()?;

        let hwm = json_numbers(&after, "mailbox_hwm").fold(0.0, f64::max);
        let worst = scalars.entry("engine.mailbox_hwm").or_insert(0.0);
        *worst = worst.max(hwm);
        for (name, field) in [
            ("engine.shed_requests", "shed_requests"),
            ("engine.restarts", "restarts"),
        ] {
            *scalars.entry(name).or_insert(0.0) += json_numbers(&after, field).sum::<f64>();
        }
        *scalars.entry("wal.compactions").or_insert(0.0) +=
            json_number(&after, "compactions").unwrap_or(0.0);
        rss.push(bench.server.peak_rss_mib());
        gen_ns += bench.gen_ns;
        generated += bench.occurrences;
        let Bench {
            server,
            conns,
            tally: served,
            spans: returned,
            ..
        } = bench;
        tally.absorb(served);
        spans = returned;
        drop(conns);
        server.kill();
    }
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    scalars.insert(
        "client.wire_bytes_per_event",
        wire as f64 / occurrences.max(1) as f64,
    );
    scalars.insert(
        "client.gen_ns_per_event",
        gen_ns as f64 / generated.max(1) as f64,
    );
    scalars.insert(
        "client.pace_lag_p99_ms",
        percentile_us(&mut tally.lag_ns, 99.0) / 1e3,
    );
    scalars.insert("client.failed_ops", tally.failed as f64);
    let probe_ns = median(&probed);
    scalars.insert("client.probe_ns_per_line", probe_ns);
    scalars.insert("client.host_speed", PROBE_REFERENCE_NS_PER_LINE / probe_ns);
    // With no untraced round (every round traced) the traced rounds are the
    // only measurement there is.
    let rounds = by_name(if plain.is_empty() { &traced } else { &plain });
    Ok(RunReport {
        workload: w,
        seed,
        plan,
        rounds,
        traced_rounds: by_name(&traced),
        incarnations: BTreeMap::from([
            ("setup_s", setups),
            ("server_rss_mb", rss),
            ("wal.recovery_s", recoveries),
        ]),
        scalars,
        attempted: tally.attempted,
        failed: tally.failed,
        input_fnv,
        spans,
    })
}
