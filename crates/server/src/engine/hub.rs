//! The notification hub: one notifier diffs subscribed views over
//! published epochs, and the hub fans the changes out to subscribers over
//! bounded outboxes. Delivery never blocks (`try_send`): a subscriber that
//! falls behind loses lines, and before its next delivered line gets a
//! `{"notify":"dropped","count":N}` marker accounting for every one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

use ecm::{StandingQuery, ViewAnswer, ViewDef, ViewEvent};

use super::router::keyed_readout;
use super::supervisor::{Fleet, Registry};
use super::{route, Pinned, ViewsSummary};
use crate::protocol::response;

/// Notices the notifier may trail by: a publication waits only while
/// this many are queued, and sends none while nobody subscribes.
pub(super) const NOTICE_DEPTH: usize = 64;

/// What the notifier is told, in the order it happened.
pub(super) enum Notice {
    /// A shard published this epoch.
    Published(usize, Pinned),
    /// A shard's worker died; queued before the replacement publishes.
    Restarted(usize),
    /// Every worker is joined: the notices before this are the last.
    Stop,
}

/// The notifier loop, until [`Notice::Stop`]. It evaluates only views
/// that have a subscriber: a keyed view on exactly the noticed epoch of
/// its key's shard, stamped with that epoch's `seq`, and a fleet top-k
/// view as `VIEW READ` reads it. It keeps one last answer per view and
/// pushes what [`ViewEvent::between`] reports.
pub(super) fn notify(fleet: &Fleet, notices: Receiver<Notice>) {
    // The last answer per watched view, with the definition it answers: a
    // view that lost its subscribers, or was dropped and re-created under
    // its name, starts over at the pending rule.
    let mut last: HashMap<String, (ViewDef<String>, ViewAnswer<String>)> = HashMap::new();
    while let Ok(notice) = notices.recv() {
        let shard = match notice {
            Notice::Stop => return,
            Notice::Published(shard, _) | Notice::Restarted(shard) => shard,
        };
        let defs = fleet
            .hub
            .watched(&fleet.views.lock().expect("view registry poisoned"));
        last.retain(|_, (def, _)| defs.contains(def));
        let mut pinned = None;
        for def in &defs {
            let owner = def.key.as_ref().map(|k| route(k, fleet.slots.len()));
            let readout = match (&notice, owner) {
                (Notice::Restarted(_), Some(owner)) if owner == shard => {
                    fleet
                        .hub
                        .publish(&def.name, &response::restarted(&def.name, shard));
                    continue;
                }
                (Notice::Published(_, epoch), Some(owner)) if owner == shard => {
                    keyed_readout(def, epoch).ok().flatten()
                }
                (Notice::Published(..), None) => {
                    let StandingQuery::TopK { k } = def.query else {
                        unreachable!("validated: fleet-wide views are top-k")
                    };
                    let epochs = pinned.get_or_insert_with(|| {
                        fleet
                            .slots
                            .iter()
                            .map(|s| s.published.pin())
                            .collect::<Vec<_>>()
                    });
                    fleet.rank_view(epochs, k, def.window)
                }
                _ => continue,
            };
            fleet.hub.evaluations.fetch_add(1, Ordering::Relaxed);
            let Some(readout) = readout else {
                // No data (or a rejected query): pending again.
                last.remove(&def.name);
                continue;
            };
            let old = last.get(&def.name).map(|(_, answer)| answer);
            let change =
                ViewEvent::between(&def.name, old, &readout.answer, readout.now, readout.seq);
            if let Some(event) = change {
                fleet.hub.publish(&def.name, &response::view_event(&event));
            }
            last.insert(def.name.clone(), (def.clone(), readout.answer));
        }
    }
}

/// One subscriber's state: its view filter, its bounded outbox, and the
/// count of lines dropped since its last successful delivery.
struct Subscriber {
    view: String,
    tx: SyncSender<String>,
    /// Lines lost since the last line that reached the outbox; folded
    /// into the next drop marker.
    pending_drops: u64,
}

/// The fan-out registry. Cheap to share behind an `Arc`; publishing
/// takes the lock only long enough to `try_send` (never a blocking
/// send), so a shard worker asking whether anyone subscribes waits on it
/// only briefly.
pub struct ViewHub {
    subs: Mutex<HashMap<u64, Subscriber>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
    outbox_depth: usize,
    evaluations: AtomicU64,
    /// The notifier's inbox (see [`notice`](Self::notice)).
    notices: SyncSender<Notice>,
}

impl ViewHub {
    /// A hub whose subscribers each buffer up to `outbox_depth` lines,
    /// and the receiving end of its notifier's inbox.
    pub(super) fn new(outbox_depth: usize) -> (ViewHub, Receiver<Notice>) {
        let (notices, inbox) = sync_channel(NOTICE_DEPTH);
        let hub = ViewHub {
            subs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            outbox_depth: outbox_depth.max(1),
            evaluations: AtomicU64::new(0),
            notices,
        };
        (hub, inbox)
    }

    /// Send the notifier `notice()` while anyone subscribes, and nothing
    /// otherwise. Waits only while the notifier is [`NOTICE_DEPTH`]
    /// notices behind; a notifier that is gone has nobody left to tell.
    pub(super) fn notice(&self, notice: impl FnOnce() -> Notice) {
        if !self.subs.lock().expect("hub poisoned").is_empty() {
            let _ = self.notices.send(notice());
        }
    }

    /// Stop the notifier once it has handled every notice before this one.
    pub(super) fn stop_notifier(&self) {
        let _ = self.notices.send(Notice::Stop);
    }

    /// Register a subscriber for `view`'s notifications. Returns the
    /// subscription id (for [`unsubscribe`](Self::unsubscribe)) and the
    /// receiving end of the outbox.
    pub fn subscribe(&self, view: &str) -> (u64, Receiver<String>) {
        let (tx, rx) = sync_channel(self.outbox_depth);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.subs.lock().expect("hub poisoned").insert(
            id,
            Subscriber {
                view: view.to_string(),
                tx,
                pending_drops: 0,
            },
        );
        (id, rx)
    }

    /// Remove a subscriber (its receiver hangs up).
    pub fn unsubscribe(&self, id: u64) {
        self.subs.lock().expect("hub poisoned").remove(&id);
    }

    /// The views in `registry` that have a subscriber.
    fn watched(&self, registry: &Registry) -> Vec<ViewDef<String>> {
        let subs = self.subs.lock().expect("hub poisoned");
        let watched = |def: &&ViewDef<String>| subs.values().any(|s| s.view == def.name);
        registry.values().filter(watched).cloned().collect()
    }

    /// The `STATS` views block: the hub's counters, around a registry of
    /// `registered` views.
    pub fn summary(&self, registered: usize) -> ViewsSummary {
        ViewsSummary {
            registered,
            maintenance: self.evaluations.load(Ordering::Relaxed),
            subscribers: self.subs.lock().expect("hub poisoned").len(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Drop every subscriber whose view was just dropped.
    pub fn evict_view(&self, view: &str) {
        self.subs
            .lock()
            .expect("hub poisoned")
            .retain(|_, s| s.view != view);
    }

    /// Deliver one rendered notification line to every subscriber of
    /// `view`. Never blocks: a full outbox records a drop instead, and a
    /// subscriber owing drops gets a typed marker before its next line so
    /// the gap is visible on its stream.
    pub fn publish(&self, view: &str, line: &str) {
        let mut total_dropped = 0u64;
        let mut subs = self.subs.lock().expect("hub poisoned");
        for sub in subs.values_mut().filter(|s| s.view == view) {
            if sub.pending_drops > 0 {
                let marker = response::drop_marker(sub.pending_drops, view);
                match sub.tx.try_send(marker) {
                    Ok(()) => sub.pending_drops = 0,
                    Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                        // Still wedged: this line joins the owed count.
                        sub.pending_drops += 1;
                        total_dropped += 1;
                        continue;
                    }
                }
            }
            match sub.tx.try_send(line.to_string()) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    sub.pending_drops += 1;
                    total_dropped += 1;
                }
            }
        }
        self.dropped.fetch_add(total_dropped, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ViewHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.summary(0);
        f.debug_struct("ViewHub")
            .field("subscribers", &stats.subscribers)
            .field("dropped", &stats.dropped)
            .field("outbox_depth", &self.outbox_depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_only_matching_subscribers() {
        let (hub, _notices) = ViewHub::new(8);
        let (_ida, rxa) = hub.subscribe("a");
        let (_idb, rxb) = hub.subscribe("b");
        hub.publish("a", "line-1");
        assert_eq!(rxa.try_recv().unwrap(), "line-1");
        assert!(rxb.try_recv().is_err());
        assert_eq!(hub.summary(0).subscribers, 2);
    }

    #[test]
    fn slow_subscriber_gets_typed_drop_marker_not_a_stall() {
        let (hub, _notices) = ViewHub::new(2);
        let (_id, rx) = hub.subscribe("v");
        for i in 0..5 {
            hub.publish("v", &format!("line-{i}"));
        }
        // Outbox depth 2: lines 0 and 1 landed, 2..5 dropped.
        assert_eq!(rx.try_recv().unwrap(), "line-0");
        assert_eq!(rx.try_recv().unwrap(), "line-1");
        assert!(rx.try_recv().is_err());
        assert_eq!(hub.summary(0).dropped, 3);
        // The next publish first accounts for the gap, then delivers.
        hub.publish("v", "line-5");
        let marker = rx.try_recv().unwrap();
        assert!(marker.contains("\"notify\":\"dropped\"") && marker.contains("\"count\":3"));
        assert_eq!(rx.try_recv().unwrap(), "line-5");
    }

    #[test]
    fn unsubscribe_and_evict_remove_subscribers() {
        let (hub, _notices) = ViewHub::new(4);
        let (id, rx) = hub.subscribe("v");
        hub.unsubscribe(id);
        hub.publish("v", "x");
        assert!(rx.try_recv().is_err());
        let (_id2, _rx2) = hub.subscribe("v");
        hub.evict_view("v");
        assert_eq!(hub.summary(0).subscribers, 0);
    }
}
