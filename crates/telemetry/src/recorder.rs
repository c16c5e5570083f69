//! The thread-local trace recorder.
//!
//! Instrumented crates call the free functions in this module; when no
//! recorder is installed (the default) every call is a branch on a
//! thread-local `Option` and allocates nothing, so the hot resolution
//! path stays effectively free.
//!
//! The recorder is deliberately thread-local: the simulator and the
//! resolution engines are single-threaded per world, and a thread-local
//! needs no synchronization on the hot path. Work sharded across threads
//! (parallel audits, the parallel experiment runner) installs a private
//! recorder per worker and the coordinating thread [`absorb`]s the
//! captured [`TraceData`] in worker-index order, which renumbers trace
//! ids and sequence numbers into the coordinator's streams — a
//! deterministic merge, independent of how the workers were scheduled.
//!
//! # Protocol
//!
//! One resolution is captured by the sequence
//! [`note_meta`]? → [`start_resolution`] → [`hop`]\* →
//! [`finish_resolution`]. `note_meta` is called by the closure mechanism
//! *before* the resolver runs, and annotates the next `start_resolution`
//! with the rule and meta-context that selected the start context — the
//! resolver's own signature stays unchanged. Resolutions begun while
//! another is open stack (the protocol engine's server-side resolutions
//! nest inside client spans).

use std::cell::RefCell;

use crate::trace::{BottomCause, Event, Hop, MemoEvent, Outcome, ResolutionTrace, TraceData};

/// Default bound on recorded resolutions and on recorded events. Records
/// past the bound are counted in [`TraceData::dropped`] instead of stored,
/// so tracing a huge run degrades to a truncated trace rather than
/// unbounded memory.
pub const DEFAULT_CAPACITY: usize = 1 << 17;

struct PendingResolution {
    trace: ResolutionTrace,
}

struct Recorder {
    data: TraceData,
    clock: u64,
    track: u64,
    seq: u64,
    next_trace_id: u64,
    open: Vec<PendingResolution>,
    pending_meta: Option<(String, u64, &'static str)>,
    capacity: usize,
}

impl Recorder {
    fn new(capacity: usize) -> Recorder {
        Recorder {
            data: TraceData::default(),
            clock: 0,
            track: 0,
            seq: 0,
            next_trace_id: 1,
            open: Vec::new(),
            pending_meta: None,
            capacity,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread with the default capacity,
/// replacing (and discarding) any previous one.
pub fn install() {
    install_with_capacity(DEFAULT_CAPACITY);
}

/// Installs a fresh recorder with an explicit capacity bound.
pub fn install_with_capacity(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(capacity)));
}

/// Uninstalls the recorder and returns everything it captured, or `None`
/// if none was installed. Unfinished resolutions are discarded.
pub fn take() -> Option<TraceData> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.data))
}

/// True if a recorder is installed on this thread. The instrumentation
/// crates use this to skip building labels when nothing is listening.
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

fn with<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Sets the recorder's virtual clock (ticks). The simulator calls this as
/// its event loop advances, so core-layer resolutions and sim-layer
/// message spans land on one timeline.
pub fn set_clock(ticks: u64) {
    let _ = with(|rec| rec.clock = ticks);
}

/// The recorder's current virtual clock (0 when inactive).
pub fn clock() -> u64 {
    with(|rec| rec.clock).unwrap_or(0)
}

/// Selects the timeline track stamped onto subsequent records. Exports
/// render each track as its own process; the experiment runner assigns
/// one per experiment.
pub fn set_track(track: u64) {
    let _ = with(|rec| rec.track = track);
}

/// The recorder's current track (0 when inactive). Parallel sweeps read
/// this before spawning workers so per-worker recorders inherit the
/// parent's track and their absorbed records land on the same timeline.
pub fn track() -> u64 {
    with(|rec| rec.track).unwrap_or(0)
}

/// Merges trace data captured by another recorder (typically a worker
/// thread's, via [`install`] + [`take`] on that thread) into this
/// thread's recorder, as if its records had been captured here.
///
/// Trace ids and sequence numbers are reassigned from this recorder's
/// streams, walking the absorbed resolutions and events merged back into
/// their original capture order (by their source seq) — so callers
/// absorbing several workers in a fixed order (worker-index order) get
/// deterministic ids regardless of how the workers were scheduled, and a
/// worker whose chunk is a contiguous segment of the serial order
/// reproduces the serial numbering exactly. Timestamps and tracks are
/// kept as recorded; track names merge. Capacity bounds apply and
/// overflow accumulates into `dropped`.
pub fn absorb(data: TraceData) {
    enum Item {
        Trace(ResolutionTrace),
        Event(Event),
    }

    let _ = with(|rec| {
        rec.data.dropped += data.dropped;
        for (track, name) in data.track_names {
            rec.data.track_names.entry(track).or_insert(name);
        }
        let mut items: Vec<(u64, Item)> = data
            .resolutions
            .into_iter()
            .map(|t| (t.seq, Item::Trace(t)))
            .chain(data.events.into_iter().map(|e| (e.seq, Item::Event(e))))
            .collect();
        items.sort_by_key(|(seq, _)| *seq);
        for (_, item) in items {
            match item {
                Item::Trace(mut trace) => {
                    trace.id = rec.next_trace_id;
                    rec.next_trace_id += 1;
                    trace.seq = rec.next_seq();
                    if rec.data.resolutions.len() < rec.capacity {
                        rec.data.resolutions.push(trace);
                    } else {
                        rec.data.dropped += 1;
                    }
                }
                Item::Event(mut ev) => {
                    ev.seq = rec.next_seq();
                    push_event(rec, ev);
                }
            }
        }
    });
}

/// Names a track (shown as the process name in Perfetto) and makes it
/// current.
pub fn set_track_name(track: u64, name: impl Into<String>) {
    let name = name.into();
    let _ = with(|rec| {
        rec.track = track;
        rec.data.track_names.insert(track, name);
    });
}

/// Annotates the *next* [`start_resolution`] with the closure rule and
/// meta-context that selected its start context.
pub fn note_meta(rule: &str, resolver: u64, source: &'static str) {
    let _ = with(|rec| rec.pending_meta = Some((rule.to_owned(), resolver, source)));
}

/// Opens a resolution trace. Returns `true` if a recorder is listening
/// (callers may use this to skip rendering hop labels otherwise).
pub fn start_resolution(start: u64, name: &str) -> bool {
    with(|rec| {
        let id = rec.next_trace_id;
        rec.next_trace_id += 1;
        let seq = rec.next_seq();
        let (rule, resolver, source) = match rec.pending_meta.take() {
            Some((r, a, s)) => (Some(r), Some(a), Some(s)),
            None => (None, None, None),
        };
        rec.open.push(PendingResolution {
            trace: ResolutionTrace {
                id,
                seq,
                ts: rec.clock,
                track: rec.track,
                name: name.to_owned(),
                start,
                rule,
                resolver,
                source,
                memo: MemoEvent::None,
                hops: Vec::new(),
                outcome: Outcome::Bottom(BottomCause::NoContextSelected),
            },
        });
    })
    .is_some()
}

/// Appends a hop to the open resolution (no-op when none is open).
pub fn hop(context: u64, generation: u64, component: &str, result: String, memo: MemoEvent) {
    let _ = with(|rec| {
        if let Some(p) = rec.open.last_mut() {
            p.trace.hops.push(Hop {
                context,
                generation,
                component: component.to_owned(),
                result,
                memo,
            });
        }
    });
}

/// Sets the whole-resolution memo verdict on the open resolution.
pub fn set_memo(memo: MemoEvent) {
    let _ = with(|rec| {
        if let Some(p) = rec.open.last_mut() {
            p.trace.memo = memo;
        }
    });
}

/// Closes the innermost open resolution with `outcome` and stores it.
/// Returns the trace id, or `None` when no recorder (or no open
/// resolution) exists.
pub fn finish_resolution(outcome: Outcome) -> Option<u64> {
    with(|rec| {
        let mut p = rec.open.pop()?;
        p.trace.outcome = outcome;
        let id = p.trace.id;
        if rec.data.resolutions.len() < rec.capacity {
            rec.data.resolutions.push(p.trace);
        } else {
            rec.data.dropped += 1;
        }
        Some(id)
    })
    .flatten()
}

/// Records a resolution that never started because the closure mechanism
/// selected no context (`R(m)` undefined). Returns the trace id when
/// recorded.
pub fn bottom_resolution(name: &str) -> Option<u64> {
    if !is_active() {
        return None;
    }
    start_resolution(u64::MAX, name);
    finish_resolution(Outcome::Bottom(BottomCause::NoContextSelected))
}

/// Records an instant event on the current track at the current clock.
pub fn instant(cat: &'static str, name: String, args: Vec<(String, String)>) {
    let _ = with(|rec| {
        let seq = rec.next_seq();
        push_event(
            rec,
            Event {
                seq,
                ts: rec.clock,
                dur: None,
                cat,
                name,
                track: rec.track,
                args,
            },
        );
    });
}

/// Records a span `[start_ticks, end_ticks]` on the current track.
pub fn span(
    cat: &'static str,
    name: String,
    start_ticks: u64,
    end_ticks: u64,
    args: Vec<(String, String)>,
) {
    let _ = with(|rec| {
        let seq = rec.next_seq();
        push_event(
            rec,
            Event {
                seq,
                ts: start_ticks,
                dur: Some(end_ticks.saturating_sub(start_ticks)),
                cat,
                name,
                track: rec.track,
                args,
            },
        );
    });
}

fn push_event(rec: &mut Recorder, ev: Event) {
    if rec.data.events.len() < rec.capacity {
        rec.data.events.push(ev);
    } else {
        rec.data.dropped += 1;
    }
}

/// Number of finished resolution traces stored so far (0 when inactive).
/// Pair with [`trace_ids_since`] to link a batch of resolutions to the
/// operation that ran them.
pub fn trace_count() -> usize {
    with(|rec| rec.data.resolutions.len()).unwrap_or(0)
}

/// The ids of resolutions recorded since a [`trace_count`] mark.
pub fn trace_ids_since(mark: usize) -> Vec<u64> {
    with(|rec| {
        rec.data
            .resolutions
            .get(mark..)
            .map(|s| s.iter().map(|t| t.id).collect())
            .unwrap_or_default()
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is thread-local; run each scenario on a fresh thread
    /// so tests cannot interfere through the shared test-runner threads.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("test thread")
    }

    #[test]
    fn inactive_recorder_is_inert() {
        on_fresh_thread(|| {
            assert!(!is_active());
            assert!(!start_resolution(1, "/etc"));
            hop(1, 0, "etc", "obj:2".into(), MemoEvent::None);
            assert_eq!(finish_resolution(Outcome::Resolved("obj:2".into())), None);
            instant("sim", "spawn".into(), Vec::new());
            assert_eq!(clock(), 0);
            assert_eq!(trace_count(), 0);
            assert!(take().is_none());
        });
    }

    #[test]
    fn captures_a_resolution_with_meta() {
        on_fresh_thread(|| {
            install();
            set_clock(7);
            set_track_name(3, "E2");
            note_meta("R(sender)", 42, "message");
            assert!(start_resolution(5, "/etc/passwd"));
            hop(5, 2, "/", "obj:5".into(), MemoEvent::Miss);
            hop(5, 2, "etc", "obj:6".into(), MemoEvent::None);
            set_memo(MemoEvent::Miss);
            let id = finish_resolution(Outcome::Resolved("obj:9".into()));
            assert_eq!(id, Some(1));
            let data = take().expect("installed");
            assert_eq!(data.resolutions.len(), 1);
            let t = &data.resolutions[0];
            assert_eq!(t.ts, 7);
            assert_eq!(t.track, 3);
            assert_eq!(t.rule.as_deref(), Some("R(sender)"));
            assert_eq!(t.resolver, Some(42));
            assert_eq!(t.source, Some("message"));
            assert_eq!(t.memo, MemoEvent::Miss);
            assert_eq!(t.hops.len(), 2);
            assert_eq!(data.track_names[&3], "E2");
        });
    }

    #[test]
    fn meta_applies_only_to_next_resolution() {
        on_fresh_thread(|| {
            install();
            note_meta("R(activity)", 1, "internal");
            start_resolution(0, "a");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            start_resolution(0, "b");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            let data = take().unwrap();
            assert!(data.resolutions[0].rule.is_some());
            assert!(data.resolutions[1].rule.is_none());
        });
    }

    #[test]
    fn nested_resolutions_stack() {
        on_fresh_thread(|| {
            install();
            start_resolution(0, "outer");
            start_resolution(1, "inner");
            hop(1, 0, "x", "obj:2".into(), MemoEvent::None);
            finish_resolution(Outcome::Resolved("obj:2".into()));
            hop(0, 0, "y", "⊥".into(), MemoEvent::None);
            finish_resolution(Outcome::Bottom(BottomCause::Unbound { at: 0 }));
            let data = take().unwrap();
            assert_eq!(data.resolutions.len(), 2);
            assert_eq!(data.resolutions[0].name, "inner");
            assert_eq!(data.resolutions[1].name, "outer");
            assert_eq!(data.resolutions[1].hops.len(), 1);
        });
    }

    #[test]
    fn capacity_bound_counts_drops() {
        on_fresh_thread(|| {
            install_with_capacity(2);
            for i in 0..4 {
                start_resolution(i, "n");
                finish_resolution(Outcome::Resolved("obj:0".into()));
                instant("sim", format!("e{i}"), Vec::new());
            }
            let data = take().unwrap();
            assert_eq!(data.resolutions.len(), 2);
            assert_eq!(data.events.len(), 2);
            assert_eq!(data.dropped, 4);
        });
    }

    #[test]
    fn absorb_renumbers_worker_traces_in_order() {
        on_fresh_thread(|| {
            install();
            set_track_name(1, "parent");
            start_resolution(0, "local");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            // Two "workers" capture on their own threads, inheriting the
            // parent's track, and are absorbed in worker-index order.
            let parent_track = track();
            let worker = |n: usize| {
                std::thread::spawn(move || {
                    install();
                    set_track(parent_track);
                    set_clock(100 + n as u64);
                    start_resolution(n as u64, &format!("w{n}"));
                    finish_resolution(Outcome::Resolved("obj:7".into()));
                    instant("audit", format!("worker{n}"), Vec::new());
                    take().expect("worker recorder")
                })
                .join()
                .expect("worker thread")
            };
            let (d0, d1) = (worker(0), worker(1));
            absorb(d0);
            absorb(d1);
            let data = take().unwrap();
            assert_eq!(data.resolutions.len(), 3);
            // Ids renumbered into the parent stream, in absorb order.
            assert_eq!(
                data.resolutions.iter().map(|t| t.id).collect::<Vec<_>>(),
                vec![1, 2, 3]
            );
            assert_eq!(data.resolutions[1].name, "w0");
            assert_eq!(data.resolutions[2].name, "w1");
            // Worker timestamps and track survive; seqs are strictly
            // increasing across the merged stream.
            assert_eq!(data.resolutions[2].ts, 101);
            assert_eq!(data.resolutions[2].track, 1);
            let mut seqs: Vec<u64> = data
                .resolutions
                .iter()
                .map(|t| t.seq)
                .chain(data.events.iter().map(|e| e.seq))
                .collect();
            let sorted = {
                let mut s = seqs.clone();
                s.sort_unstable();
                s
            };
            seqs.sort_unstable();
            assert_eq!(seqs, sorted);
            assert_eq!(data.events.len(), 2);
        });
    }

    #[test]
    fn absorb_respects_capacity() {
        on_fresh_thread(|| {
            install_with_capacity(1);
            start_resolution(0, "kept");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            let foreign = std::thread::spawn(|| {
                install();
                start_resolution(0, "overflow");
                finish_resolution(Outcome::Resolved("obj:2".into()));
                take().unwrap()
            })
            .join()
            .unwrap();
            absorb(foreign);
            let data = take().unwrap();
            assert_eq!(data.resolutions.len(), 1);
            assert_eq!(data.resolutions[0].name, "kept");
            assert_eq!(data.dropped, 1);
        });
    }

    #[test]
    fn spans_and_trace_id_marks() {
        on_fresh_thread(|| {
            install();
            let mark = trace_count();
            start_resolution(0, "a");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            start_resolution(0, "b");
            finish_resolution(Outcome::Resolved("obj:1".into()));
            assert_eq!(trace_ids_since(mark), vec![1, 2]);
            span(
                "protocol",
                "resolve".into(),
                3,
                9,
                vec![("m".into(), "2".into())],
            );
            assert_eq!(bottom_resolution("/lost").map(|_| ()), Some(()));
            let data = take().unwrap();
            assert_eq!(data.events.len(), 1);
            assert_eq!(data.events[0].dur, Some(6));
            let last = data.resolutions.last().unwrap();
            assert_eq!(
                last.outcome,
                Outcome::Bottom(BottomCause::NoContextSelected)
            );
        });
    }
}
