//! Deterministic fault injection: a seeded [`FaultPlan`] threaded through
//! the WAL, snapshot, and shard message-handling paths.
//!
//! A plan is a `;`-separated list of rules, each `site:action@trigger`:
//!
//! | part | values |
//! |---|---|
//! | site | `wal_append`, `wal_rotate`, `snapshot`, `shard` |
//! | action | `err`, `panic`, `delay=<N>ms` |
//! | trigger | a probability (`0.001`) or `seq=<N>` (the N-th hit of that site); omitted (with its `@`) = every hit |
//!
//! plus an optional `seed=<N>` element. Example:
//! `wal_append:err@0.001;shard:panic@seq=5000;snapshot:delay=50ms`.
//!
//! Probabilistic triggers draw from a [`SeededRng`](stream_gen::SeededRng)
//! derived from the plan seed, the shard index, and the hook's salt, so a
//! given plan replays the exact same fault schedule on every run —
//! crash-cascade and slow-disk scenarios are reproducible unit tests.
//! `seq` triggers count per (hook, site), so a respawned worker's fresh
//! hook fires again at the same message count.
//!
//! The whole module is **zero-cost when disabled**: debug builds (and
//! builds with the `fault-injection` cargo feature) carry the real
//! implementation; plain release builds get zero-sized stubs whose
//! [`fire`](FaultHook::fire) inlines to `Ok(())` and whose error strings
//! do not exist in the binary — CI greps the release binary to prove it.

/// Where in the engine a fault hook sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Before a WAL ingest append writes any bytes (an `err` here is the
    /// clean ack-after-append failure path: the run lands nowhere).
    WalAppend,
    /// Before the WAL seals the active segment and opens the next.
    WalRotate,
    /// At the start of a checkpoint / compaction write.
    Snapshot,
    /// At a shard worker's receipt of an ingest message, before any WAL
    /// append — a `panic` here kills the worker with the message
    /// applied nowhere.
    Shard,
}

impl FaultSite {
    // Hit counters exist only where the hooks do.
    #[cfg(any(debug_assertions, feature = "fault-injection"))]
    const COUNT: usize = 4;

    #[cfg(any(debug_assertions, feature = "fault-injection"))]
    fn index(self) -> usize {
        match self {
            FaultSite::WalAppend => 0,
            FaultSite::WalRotate => 1,
            FaultSite::Snapshot => 2,
            FaultSite::Shard => 3,
        }
    }

    /// The grammar token naming this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal_append",
            FaultSite::WalRotate => "wal_rotate",
            FaultSite::Snapshot => "snapshot",
            FaultSite::Shard => "shard",
        }
    }
}

#[cfg(any(debug_assertions, feature = "fault-injection"))]
mod enabled {
    use super::FaultSite;
    use std::time::Duration;
    use stream_gen::SeededRng;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Action {
        Err,
        Panic,
        Delay(Duration),
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Trigger {
        /// Fire with this probability at every hit of the site.
        Prob(f64),
        /// Fire exactly at the N-th hit of the site (1-based, per hook).
        Seq(u64),
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rule {
        site: FaultSite,
        action: Action,
        trigger: Trigger,
    }

    /// A parsed, seeded fault schedule. Cheap to clone; one plan seeds
    /// every shard's hooks.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FaultPlan {
        rules: Vec<Rule>,
        seed: u64,
    }

    impl FaultPlan {
        /// Parse the `site:action@trigger;…` grammar (see the module docs).
        ///
        /// # Errors
        /// A human-readable description of the first malformed rule.
        pub fn parse(text: &str) -> Result<FaultPlan, String> {
            let mut plan = FaultPlan::default();
            for rule in text.split(';') {
                let rule = rule.trim();
                if rule.is_empty() {
                    continue;
                }
                if let Some(seed) = rule.strip_prefix("seed=") {
                    plan.seed = seed
                        .parse()
                        .map_err(|_| format!("bad seed in fault rule {rule:?}"))?;
                    continue;
                }
                plan.rules.push(parse_rule(rule)?);
            }
            Ok(plan)
        }

        /// Whether the plan injects nothing.
        pub fn is_empty(&self) -> bool {
            self.rules.is_empty()
        }
    }

    fn parse_rule(rule: &str) -> Result<Rule, String> {
        let bad = |what: &str| format!("{what} in fault rule {rule:?}");
        // The trigger is optional: `snapshot:delay=50ms` fires on every hit.
        let (head, trigger) = match rule.split_once('@') {
            Some((head, trigger)) => (head, Some(trigger)),
            None => (rule, None),
        };
        let (site, action) = head.split_once(':').ok_or_else(|| bad("missing :action"))?;
        let site = match site.trim() {
            "wal_append" => FaultSite::WalAppend,
            "wal_rotate" => FaultSite::WalRotate,
            "snapshot" => FaultSite::Snapshot,
            "shard" => FaultSite::Shard,
            other => return Err(bad(&format!("unknown site {other:?}"))),
        };
        let action = match action.trim() {
            "err" => Action::Err,
            "panic" => Action::Panic,
            delay => {
                let ms = delay
                    .strip_prefix("delay=")
                    .and_then(|d| d.strip_suffix("ms"))
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| bad(&format!("unknown action {delay:?}")))?;
                Action::Delay(Duration::from_millis(ms))
            }
        };
        if site == FaultSite::Shard && action == Action::Err {
            // A shard-site "error" has no error channel — the message
            // either applies, panics the worker, or stalls it.
            return Err(bad("site shard supports only panic and delay"));
        }
        let trigger = match trigger.map(str::trim) {
            None => Trigger::Prob(1.0),
            Some(trigger) => match trigger.strip_prefix("seq=") {
                Some(n) => Trigger::Seq(
                    n.parse()
                        .map_err(|_| bad(&format!("bad seq {trigger:?}")))?,
                ),
                None => {
                    let p: f64 = trigger
                        .parse()
                        .map_err(|_| bad(&format!("unknown trigger {trigger:?}")))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad("probability must be in [0,1]"));
                    }
                    Trigger::Prob(p)
                }
            },
        };
        Ok(Rule {
            site,
            action,
            trigger,
        })
    }

    /// One component's armed view of the plan: per-site hit counters and a
    /// private RNG stream, so fault schedules are independent across shards
    /// and across the WAL/worker split within a shard.
    #[derive(Debug)]
    pub struct FaultHook {
        rules: Vec<Rule>,
        hits: [u64; FaultSite::COUNT],
        rng: SeededRng,
        shard: usize,
    }

    impl FaultHook {
        /// Arm the plan for one component of shard `shard`; `salt`
        /// decorrelates hooks that live on the same shard.
        pub fn new(plan: &FaultPlan, shard: usize, salt: u64) -> FaultHook {
            FaultHook {
                rules: plan.rules.clone(),
                hits: [0; FaultSite::COUNT],
                rng: SeededRng::seed_from_u64(
                    plan.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9) ^ salt,
                ),
                shard,
            }
        }

        /// Count a hit of `site` and run any matching rule: sleep on
        /// `delay`, panic on `panic`, or return the injected error on
        /// `err`. With no matching rule this is a counter bump.
        pub fn fire(&mut self, site: FaultSite) -> Result<(), String> {
            if self.rules.is_empty() {
                return Ok(());
            }
            self.hits[site.index()] += 1;
            let hit = self.hits[site.index()];
            for i in 0..self.rules.len() {
                let rule = self.rules[i];
                if rule.site != site {
                    continue;
                }
                let fires = match rule.trigger {
                    Trigger::Seq(n) => hit == n,
                    Trigger::Prob(p) => self.rng.gen_bool(p),
                };
                if !fires {
                    continue;
                }
                match rule.action {
                    Action::Delay(d) => std::thread::sleep(d),
                    Action::Panic => panic!(
                        "injected fault: shard {} {} panic at hit {hit}",
                        self.shard,
                        site.name()
                    ),
                    Action::Err => {
                        return Err(format!(
                            "injected fault: shard {} {} at hit {hit}",
                            self.shard,
                            site.name()
                        ))
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "fault-injection")))]
mod disabled {
    use super::FaultSite;

    /// Release stub: holds nothing, injects nothing.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// Release builds carry no injection machinery: any plan text is
        /// refused.
        ///
        /// # Errors
        /// Always.
        pub fn parse(_text: &str) -> Result<FaultPlan, String> {
            Err("fault plans need a debug build or the fault-injection feature".to_string())
        }

        /// Always true in a release build.
        pub fn is_empty(&self) -> bool {
            true
        }
    }

    /// Release stub: zero-sized, every call inlines away.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FaultHook;

    impl FaultHook {
        /// Arm nothing.
        pub fn new(_plan: &FaultPlan, _shard: usize, _salt: u64) -> FaultHook {
            FaultHook
        }

        /// No-op; the `Ok` lets callers keep one code path.
        #[inline(always)]
        #[allow(clippy::unnecessary_wraps)]
        pub fn fire(&mut self, _site: FaultSite) -> Result<(), String> {
            Ok(())
        }
    }
}

#[cfg(any(debug_assertions, feature = "fault-injection"))]
pub use enabled::{FaultHook, FaultPlan};

#[cfg(not(any(debug_assertions, feature = "fault-injection")))]
pub use disabled::{FaultHook, FaultPlan};

#[cfg(all(test, any(debug_assertions, feature = "fault-injection")))]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let plan =
            FaultPlan::parse("wal_append:err@0.5;shard:panic@seq=3;snapshot:delay=5ms;seed=9")
                .expect("parse");
        assert!(!plan.is_empty());
        // Whitespace and empty rules are tolerated.
        let spaced = FaultPlan::parse(
            " wal_append:err@0.5 ; shard:panic@seq=3 ;\
                                       snapshot:delay=5ms ; seed=9 ; ",
        )
        .expect("parse spaced");
        assert_eq!(plan, spaced);
        assert!(FaultPlan::parse("").expect("empty").is_empty());
    }

    #[test]
    fn malformed_rules_are_typed_errors() {
        for bad in [
            "wal_append@0.5",            // no action
            "bogus:err@0.5",             // unknown site
            "wal_append:explode@0.5",    // unknown action
            "wal_append:err@maybe",      // unknown trigger
            "wal_append:err@1.5",        // probability out of range
            "wal_append:delay=5sec@0.5", // bad delay unit
            "shard:err@0.5",             // err unsupported at shard site
            "seed=lots",                 // bad seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn seq_trigger_fires_exactly_once() {
        let plan = FaultPlan::parse("wal_append:err@seq=3").expect("parse");
        let mut hook = FaultHook::new(&plan, 0, 0);
        for hit in 1..=10u64 {
            let fired = hook.fire(FaultSite::WalAppend).is_err();
            assert_eq!(fired, hit == 3, "hit {hit}");
        }
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let plan = FaultPlan::parse("wal_append:err@0.3;seed=42").expect("parse");
        let schedule = |salt: u64| -> Vec<bool> {
            let mut hook = FaultHook::new(&plan, 1, salt);
            (0..64)
                .map(|_| hook.fire(FaultSite::WalAppend).is_err())
                .collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
        assert_ne!(schedule(7), schedule(8), "salt decorrelates hooks");
        let fired = schedule(7).iter().filter(|f| **f).count();
        assert!((5..=35).contains(&fired), "p=0.3 over 64 draws: {fired}");
    }

    #[test]
    fn unmatched_sites_never_fire() {
        let plan = FaultPlan::parse("wal_rotate:panic@seq=1").expect("parse");
        let mut hook = FaultHook::new(&plan, 0, 0);
        for _ in 0..100 {
            hook.fire(FaultSite::WalAppend).expect("no rule for append");
            hook.fire(FaultSite::Snapshot)
                .expect("no rule for snapshot");
        }
    }
}
