//! The output check: an in-process [`SketchStore`] fed exactly the acked
//! runs of a fixed key sample, and an exact in-window count beside it.
//!
//! The server must answer `point`, `self_join` and `total` for every
//! sampled key with JSON byte-equal to the store's (same spec, same
//! sequence ⇒ same bits), and the point answers must sit within
//! ε·(window total) of the exact count for at least 1−δ of the sample —
//! the paper's contract, checked on what was actually served.

use std::collections::BTreeMap;

use ecm::{Query, SketchSpec, SketchStore, WindowSpec};
use sketch_server::protocol::response;

use crate::gen::{Generator, SampleEvent, WINDOW};

/// `SKETCHD_SEED` of every run.
pub const SERVER_SEED: u64 = 7;
/// The spec's default ε and δ (see `SketchSpec::time`).
pub const EPSILON: f64 = 0.1;
/// See [`EPSILON`].
pub const DELTA: f64 = 0.1;

/// The spec `sketchd` builds from the environment [`crate::proc`] sets.
pub fn server_spec() -> SketchSpec {
    SketchSpec::time(WINDOW).seed(SERVER_SEED)
}

/// One question of the check and the reply the server must give.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// The request line (newline-terminated).
    pub request: String,
    /// The byte-exact reply.
    pub reply: String,
    /// For point questions: the exact in-window count and window total.
    pub exact: Option<(f64, f64)>,
}

/// The reference the server is compared against.
#[derive(Debug)]
pub struct Oracle {
    store: SketchStore<String>,
    /// Per sampled key, its runs still inside the window.
    recent: BTreeMap<u32, Vec<SampleEvent>>,
}

impl Oracle {
    /// An empty reference over `sample` key indices.
    pub fn new(sample: &[usize]) -> Self {
        Oracle {
            store: SketchStore::new(server_spec()).expect("the server's spec is valid"),
            recent: sample.iter().map(|&k| (k as u32, Vec::new())).collect(),
        }
    }

    /// Apply acked runs, in the order the server acked them per key.
    pub fn apply(&mut self, gen: &Generator, events: &[SampleEvent]) {
        for e in events {
            let name = gen.key_name(e.key as usize).to_string();
            self.store.insert_weighted(name, e.ts, e.item, e.n);
            self.recent
                .get_mut(&e.key)
                .expect("only sampled keys are recorded")
                .push(*e);
        }
    }

    /// Mirror a `FLUSH ts`, and forget runs that have left the window.
    pub fn flush(&mut self, ts: u64) {
        self.store.advance_to(ts);
        for runs in self.recent.values_mut() {
            runs.retain(|e| e.ts + WINDOW > ts);
        }
    }

    /// The questions for every sampled key at tick `now`, with the replies
    /// a correct server gives when its shard clocks read `now`.
    pub fn expected(&self, gen: &Generator, now: u64) -> Vec<Expected> {
        let window = WindowSpec::time(now, WINDOW);
        let mut out = Vec::new();
        for (&key, runs) in &self.recent {
            let name = gen.key_name(key as usize);
            let item = u64::from(key) % 8;
            let in_window = |e: &&SampleEvent| e.ts + WINDOW > now && e.ts <= now;
            let total: u64 = runs.iter().filter(in_window).map(|e| e.n).sum();
            let count: u64 = runs
                .iter()
                .filter(in_window)
                .filter(|e| e.item == item)
                .map(|e| e.n)
                .sum();
            let questions = [
                (format!("point {item}"), Query::point(item), "point"),
                ("self_join".to_string(), Query::self_join(), "self_join"),
                ("total".to_string(), Query::total_arrivals(), "total"),
            ];
            for (wire, query, verb) in questions {
                let reply = match self.store.query(&name.to_string(), &query, window) {
                    Some(Ok(answer)) => response::answer_at(verb, &answer, now),
                    other => format!("reference store could not answer: {other:?}"),
                };
                out.push(Expected {
                    request: format!("QUERY {name} {wire} time {now} {WINDOW}\n"),
                    reply,
                    exact: (verb == "point").then_some((count as f64, total as f64)),
                });
            }
        }
        out
    }
}

/// A reply without its trailing `"now"` field: what stays comparable after
/// a crash restart, where the un-logged `FLUSH` no longer sets the clock.
fn without_now(reply: &str) -> &str {
    reply.rfind(",\"now\":").map_or(reply, |at| &reply[..at])
}

/// Misses among `replies` (aligned with `expected`): every reply that is
/// not byte-equal, plus the shortfall when fewer than 1−δ of the point
/// answers are within ε·total of the exact count.
pub fn misses(expected: &[Expected], replies: &[String], ignore_now: bool) -> u64 {
    let mut wrong = 0;
    let (mut points, mut outside) = (0u64, 0u64);
    for (want, got) in expected.iter().zip(replies) {
        let same = if ignore_now {
            without_now(&want.reply) == without_now(got)
        } else {
            want.reply == *got
        };
        if !same {
            wrong += 1;
        }
        if let Some((count, total)) = want.exact {
            points += 1;
            let served = crate::wire::json_number(got, "value").unwrap_or(f64::NAN);
            // A reply without a value is outside whatever the bound.
            let off = (served - count).abs();
            if off.is_nan() || off > EPSILON * total {
                outside += 1;
            }
        }
    }
    let allowed = (DELTA * points as f64).floor() as u64;
    wrong + outside.saturating_sub(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Shape;

    #[test]
    fn misses_counts_wrong_bytes_and_answers_outside_epsilon() {
        let want = |reply: &str, exact| Expected {
            request: String::new(),
            reply: reply.to_string(),
            exact,
        };
        let expected = vec![
            want(
                r#"{"ok":true,"query":"point","value":10.0,"now":5}"#,
                Some((10.0, 100.0)),
            ),
            want(r#"{"ok":true,"query":"total","value":100.0,"now":5}"#, None),
        ];
        let same: Vec<String> = expected.iter().map(|e| e.reply.clone()).collect();
        assert_eq!(misses(&expected, &same, false), 0);
        let clockless = vec![
            r#"{"ok":true,"query":"point","value":10.0,"now":4}"#.to_string(),
            same[1].clone(),
        ];
        assert_eq!(misses(&expected, &clockless, false), 1);
        assert_eq!(misses(&expected, &clockless, true), 0);
        // 35 is 25 away from the exact 10 with ε·total = 10: wrong bytes
        // and outside the bound, with no allowance in a sample of one.
        let far = vec![
            r#"{"ok":true,"query":"point","value":35.0,"now":5}"#.to_string(),
            same[1].clone(),
        ];
        assert_eq!(misses(&expected, &far, false), 2);
    }

    #[test]
    fn oracle_counts_only_the_window() {
        let shape = Shape {
            keys: 2,
            key_skew: 0.0,
            weighted: false,
        };
        let gen = Generator::new(1, shape, &[0]);
        let mut oracle = Oracle::new(&[0]);
        let run = |ts, n| SampleEvent {
            key: 0,
            ts,
            item: 0,
            n,
        };
        oracle.apply(&gen, &[run(100, 5), run(100 + WINDOW, 2)]);
        oracle.flush(100 + WINDOW);
        let expected = oracle.expected(&gen, 100 + WINDOW);
        assert_eq!(expected.len(), 3);
        assert_eq!(expected[0].exact, Some((2.0, 2.0)));
        assert!(
            expected[0].reply.contains("\"value\":2.0"),
            "{}",
            expected[0].reply
        );
    }
}
