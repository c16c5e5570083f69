//! The one ordered sweep over scoped threads.
//!
//! Coherence sweeps, audits and cache staleness checks only *read* σ, so
//! splitting their items across threads cannot change an answer. What it
//! could change is the order answers come back in; [`map_chunks`] fixes
//! that by returning one result per chunk, in item order, whatever order
//! the workers finish in.

/// Splits `items` into at most `threads` contiguous chunks, runs `f` on
/// each chunk in its own scoped thread, and returns the per-chunk results
/// in item order.
///
/// With `threads <= 1` (or fewer than two items) `f` runs once, on the
/// calling thread, over the whole slice. Callers decide when a sweep is
/// large enough to be worth a thread.
///
/// # Panics
///
/// Panics if a worker panics.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move |_| f(slice)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope")
}

/// The worker count a sweep may use: the machine's available parallelism,
/// or 1 when it cannot be read.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_come_back_in_item_order() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [0, 1, 2, 4, 7, 200] {
            let chunks = map_chunks(&items, threads, |s| s.to_vec());
            assert!(chunks.len() <= threads.max(1));
            assert_eq!(chunks.concat(), items, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_serial_sweeps_run_once_on_the_caller() {
        let caller = std::thread::current().id();
        let empty: [u8; 0] = [];
        let ran = map_chunks(&empty, 4, |s| (s.len(), std::thread::current().id()));
        assert_eq!(ran, vec![(0, caller)]);
        let ran = map_chunks(&[1, 2, 3], 1, |s| (s.len(), std::thread::current().id()));
        assert_eq!(ran, vec![(3, caller)]);
    }
}
