//! Named counters for experiments.

use std::collections::BTreeMap;
use std::fmt;

/// Named counters of what a world did: messages sent, delivered and lost,
/// processes spawned, names resolved, and whatever else callers bump.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// The per-message counters, one fixed slot each (see [`HOT_KEYS`]).
    hot: [u64; HOT_KEYS.len()],
    /// Every other counter, by name.
    counters: BTreeMap<&'static str, u64>,
}

/// The counters every simulated message pays for. They live in fixed
/// slots behind cached registry handles, so a bump is an add, not a map
/// probe. Sorted, like the map they front.
const HOT_KEYS: [&str; 5] = ["delivered", "lost", "sent", "wake", "wire_bytes"];

#[inline]
fn hot_slot(key: &str) -> Option<usize> {
    HOT_KEYS.iter().position(|k| *k == key)
}

/// The global-registry counter mirroring a hot slot, looked up on the
/// slot's first bump and cached.
fn hot_mirror(slot: usize) -> &'static naming_telemetry::metrics::Counter {
    use std::sync::{Arc, OnceLock};
    static MIRRORS: [OnceLock<Arc<naming_telemetry::metrics::Counter>>; HOT_KEYS.len()] =
        [const { OnceLock::new() }; HOT_KEYS.len()];
    MIRRORS[slot]
        .get_or_init(|| naming_telemetry::metrics::global().counter(mirror_name(HOT_KEYS[slot])))
}

impl TraceLog {
    /// Increments a named counter.
    ///
    /// The increment is mirrored into the process-wide
    /// [`naming_telemetry::metrics`] registry (under a `sim.`-prefixed name
    /// for the standard event counters), so metric snapshots aggregate
    /// across worlds. [`TraceLog::clear`] does not rewind the mirror:
    /// registry counters are monotone.
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
            hot_mirror(slot).add(n);
            return;
        }
        *self.counters.entry(key).or_insert(0) += n;
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

    /// Clears every counter.
    pub fn clear(&mut self) {
        self.hot = Default::default();
        self.counters.clear();
    }
}

/// The global-metrics name a trace counter is mirrored under: the standard
/// event counters gain a `sim.` prefix; ad-hoc caller keys pass through.
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
    fn hot_and_named_counters_read_and_print_as_one_sorted_map() {
        let mut log = TraceLog::default();
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
    fn records_events_and_counters() {
        // What a world did is counted, one key per kind of event.
        let mut log = TraceLog::default();
        log.bump("spawned");
        log.bump("sent");
        assert_eq!(log.counter("spawned"), 1);
        assert_eq!(log.counter("sent"), 1);
        assert_eq!(log.counter("delivered"), 0);
        assert!(log.to_string().contains("spawned=1"));
    }

    #[test]
    fn counters_only_mode_skips_events() {
        // A log keeps counts only: an event leaves nothing behind but its
        // counter, so its printed form is the counters alone.
        let mut log = TraceLog::default();
        log.bump("renumbered");
        assert_eq!(log.counter("renumbered"), 1);
        assert_eq!(log.to_string(), "trace[renumbered=1]");
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::default();
        log.bump("x");
        log.bump("delivered");
        log.clear();
        assert_eq!((log.counter("x"), log.counter("delivered")), (0, 0));
    }
}
