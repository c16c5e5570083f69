//! Execution tracing and counters for experiments.

use std::collections::BTreeMap;
use std::fmt;

use naming_core::closure::NameSource;
use naming_core::entity::{ActivityId, Entity};
use naming_core::name::CompoundName;

use crate::time::VirtualTime;

/// A traced simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An activity resolved a name.
    Resolved {
        /// The resolving activity.
        pid: ActivityId,
        /// The resolved name.
        name: CompoundName,
        /// How the activity obtained the name.
        source: NameSource,
        /// The entity obtained (possibly `⊥`).
        entity: Entity,
    },
    /// A message left its sender.
    MessageSent {
        /// Sender.
        from: ActivityId,
        /// Receiver.
        to: ActivityId,
        /// Number of names carried.
        names: usize,
    },
    /// A message reached its receiver's mailbox.
    MessageDelivered {
        /// Sender.
        from: ActivityId,
        /// Receiver.
        to: ActivityId,
    },
    /// A process was created.
    Spawned {
        /// The new process.
        pid: ActivityId,
        /// Its parent, if any.
        parent: Option<ActivityId>,
    },
    /// A machine or network address changed.
    Renumbered {
        /// Human-readable description of what changed.
        what: String,
    },
}

/// An append-only log of [`TraceEvent`]s with named counters.
///
/// Event recording can be disabled (counters stay on) to keep long
/// experiment runs cheap.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Vec<(VirtualTime, TraceEvent)>,
    /// The per-message counters, one fixed slot each (see [`HOT_KEYS`]).
    hot: [u64; HOT_KEYS.len()],
    /// Every other counter, by name.
    counters: BTreeMap<&'static str, u64>,
    record_events: bool,
}

/// The counters every simulated message pays for. They live in fixed
/// slots (and, with `telemetry`, behind cached registry handles) so a
/// bump is an add, not a map probe. Sorted, like the map they front.
const HOT_KEYS: [&str; 5] = ["delivered", "lost", "sent", "wake", "wire_bytes"];

#[inline]
fn hot_slot(key: &str) -> Option<usize> {
    HOT_KEYS.iter().position(|k| *k == key)
}

/// The global-registry counter mirroring a hot slot, looked up on the
/// slot's first bump and cached.
#[cfg(feature = "telemetry")]
fn hot_mirror(slot: usize) -> &'static naming_telemetry::metrics::Counter {
    use std::sync::{Arc, OnceLock};
    static MIRRORS: [OnceLock<Arc<naming_telemetry::metrics::Counter>>; HOT_KEYS.len()] =
        [const { OnceLock::new() }; HOT_KEYS.len()];
    MIRRORS[slot]
        .get_or_init(|| naming_telemetry::metrics::global().counter(mirror_name(HOT_KEYS[slot])))
}

impl TraceLog {
    /// Creates a log with event recording enabled.
    pub fn new() -> TraceLog {
        TraceLog {
            record_events: true,
            ..TraceLog::default()
        }
    }

    /// Creates a log that only keeps counters.
    pub fn counters_only() -> TraceLog {
        TraceLog::default()
    }

    /// Appends an event (if recording) and bumps its kind counter.
    pub fn record(&mut self, time: VirtualTime, event: TraceEvent) {
        let key = match &event {
            TraceEvent::Resolved { .. } => "resolved",
            TraceEvent::MessageSent { .. } => "sent",
            TraceEvent::MessageDelivered { .. } => "delivered",
            TraceEvent::Spawned { .. } => "spawned",
            TraceEvent::Renumbered { .. } => "renumbered",
        };
        self.bump(key);
        if self.record_events {
            self.events.push((time, event));
        }
    }

    /// Increments a named counter.
    ///
    /// With the `telemetry` feature the increment is mirrored into the
    /// process-wide [`naming_telemetry::metrics`] registry (under a
    /// `sim.`-prefixed name for the standard event counters), so metric
    /// snapshots aggregate across worlds. [`TraceLog::clear`] does not
    /// rewind the mirror: registry counters are monotone.
    #[inline]
    pub fn bump(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Adds `n` to a named counter in one step — for quantities that
    /// arrive in lumps, like a frame's bytes on the wire. Mirrored into
    /// the telemetry registry exactly like [`TraceLog::bump`].
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        if let Some(slot) = hot_slot(key) {
            self.hot[slot] += n;
            #[cfg(feature = "telemetry")]
            hot_mirror(slot).add(n);
            return;
        }
        *self.counters.entry(key).or_insert(0) += n;
        #[cfg(feature = "telemetry")]
        naming_telemetry::metrics::global()
            .counter(mirror_name(key))
            .add(n);
    }

    /// A counter's current value (0 if never bumped).
    #[inline]
    pub fn counter(&self, key: &str) -> u64 {
        match hot_slot(key) {
            Some(slot) => self.hot[slot],
            None => self.counters.get(key).copied().unwrap_or(0),
        }
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[(VirtualTime, TraceEvent)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears recorded events and counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.hot = Default::default();
        self.counters.clear();
    }
}

/// The global-metrics name a trace counter is mirrored under: the standard
/// event counters gain a `sim.` prefix; ad-hoc caller keys pass through.
#[cfg(feature = "telemetry")]
fn mirror_name(key: &'static str) -> &'static str {
    match key {
        "resolved" => "sim.resolved",
        "sent" => "sim.sent",
        "delivered" => "sim.delivered",
        "spawned" => "sim.spawned",
        "renumbered" => "sim.renumbered",
        "lost" => "sim.lost",
        "unroutable" => "sim.unroutable",
        "dropped" => "sim.dropped",
        other => other,
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace[")?;
        // One sorted view: the hot slots that were ever bumped, merged with
        // the named counters.
        let mut all = self.counters.clone();
        all.extend(
            HOT_KEYS
                .iter()
                .zip(self.hot)
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| (*k, v)),
        );
        let mut first = true;
        for (k, v) in &all {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_and_counters() {
        let mut log = TraceLog::new();
        log.record(
            VirtualTime::from_ticks(1),
            TraceEvent::Spawned {
                pid: ActivityId::from_index(0),
                parent: None,
            },
        );
        log.record(
            VirtualTime::from_ticks(2),
            TraceEvent::MessageSent {
                from: ActivityId::from_index(0),
                to: ActivityId::from_index(1),
                names: 1,
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.counter("spawned"), 1);
        assert_eq!(log.counter("sent"), 1);
        assert_eq!(log.counter("delivered"), 0);
        assert!(log.to_string().contains("spawned=1"));
    }

    #[test]
    fn counters_only_mode_skips_events() {
        let mut log = TraceLog::counters_only();
        log.record(
            VirtualTime::ZERO,
            TraceEvent::Renumbered { what: "net".into() },
        );
        assert!(log.is_empty());
        assert_eq!(log.counter("renumbered"), 1);
    }

    #[test]
    fn hot_and_named_counters_read_and_print_as_one_sorted_map() {
        let mut log = TraceLog::counters_only();
        log.bump("unroutable");
        log.bump("sent");
        log.add("wire_bytes", 40);
        log.bump("dropped");
        assert_eq!(log.counter("sent"), 1);
        assert_eq!(log.counter("wire_bytes"), 40);
        assert_eq!(log.counter("lost"), 0);
        assert_eq!(
            log.to_string(),
            "trace[dropped=1, sent=1, unroutable=1, wire_bytes=40]"
        );
        log.clear();
        assert_eq!(log.counter("sent"), 0);
        assert_eq!(log.to_string(), "trace[]");
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::new();
        log.bump("x");
        log.record(
            VirtualTime::ZERO,
            TraceEvent::MessageDelivered {
                from: ActivityId::from_index(0),
                to: ActivityId::from_index(1),
            },
        );
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.counter("x"), 0);
    }
}
