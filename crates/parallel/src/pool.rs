//! Indexed parallel map with dynamic chunk dispatch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at 16 (the workloads here stop scaling long before
/// the cap matters, and oversubscribing CI runners only adds noise).
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Parallel, order-preserving map over `items` using
/// [`recommended_threads`] workers.
///
/// Equivalent to `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()`
/// — same values, same order — but executed on a scoped thread pool with
/// dynamic load balancing (workers claim fixed-size chunks from an atomic
/// counter, so a few slow items cannot serialize the sweep).
///
/// ```
/// use wsn_parallel::par_map;
///
/// let squares = par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(recommended_threads(), items, f)
}

/// How many consecutive items a worker of [`par_map_threads`] over
/// `threads` workers claims at once from `items` items. It aims for about
/// 8 chunks per worker, so stragglers re-balance while dispatch overhead
/// stays negligible. A caller mixing a few heavy items into many light
/// ones can place the heavy ones a chunk apart so no worker claims two.
pub fn chunk_len(threads: usize, items: usize) -> usize {
    (items / (threads * 8)).max(1)
}

/// [`par_map`] with an explicit worker count (`threads == 1` runs inline,
/// useful for debugging and for measuring scaling).
///
/// Results land in a slot vector preallocated to the exact chunk count:
/// each worker claims a chunk index from the shared cursor, maps that
/// contiguous item range, and stores the values in the chunk's own slot
/// (one uncontended lock per chunk). Reassembly is a flat in-order drain —
/// no channel and no per-item `Option` bookkeeping.
///
/// # Panics
///
/// Panics if `threads == 0`, or re-panics if `f` panicked on any worker.
pub fn par_map_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if items.is_empty() {
        return Vec::new();
    }
    if threads == 1 || items.len() == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let chunk = chunk_len(threads, items.len());
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(items.len());

    let slots: Vec<Mutex<Vec<U>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let slots = &slots;
                let f = &f;
                s.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let start = idx * chunk;
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    let values: Vec<U> = items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(k, x)| f(start + k, x))
                        .collect();
                    // Each chunk index is claimed exactly once, so this lock
                    // is always uncontended.
                    *slots[idx].lock().unwrap_or_else(|e| e.into_inner()) = values;
                })
            })
            .collect();
        for handle in handles {
            if handle.join().is_err() {
                panic!("parallel map worker panicked");
            }
        }
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.append(&mut slot.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    debug_assert_eq!(out.len(), items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 16] {
            let got = par_map_threads(threads, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<i32> = vec![];
        assert_eq!(par_map(&empty, |_, x| *x), Vec::<i32>::new());
        assert_eq!(par_map(&[5], |i, x| x + i as i32), vec![5]);
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let n = 5_000;
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..n).collect();
        let out = par_map_threads(4, &items, |i, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn unbalanced_work_still_completes() {
        // A few very slow items early in the list: dynamic dispatch must
        // not starve the remaining work.
        let items: Vec<u32> = (0..64).collect();
        let out = par_map_threads(4, &items, |_, &x| {
            if x < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        // Worker count must clamp to the item count without deadlocking.
        let items: Vec<u32> = (0..5).collect();
        let out = par_map_threads(32, &items, |_, &x| x + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map_threads(4, &items, |_, &x| {
            if x == 57 {
                panic!("injected failure");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = par_map_threads(0, &[1, 2, 3], |_, x| *x);
    }

    #[test]
    fn seeded_parallel_monte_carlo_is_thread_count_invariant() {
        use crate::seed::seed_for;
        use rand::{Rng, SeedableRng};
        let trials: Vec<u64> = (0..200).collect();
        let run = |threads: usize| -> Vec<f64> {
            par_map_threads(threads, &trials, |i, _| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed_for(99, i as u64));
                (0..100).map(|_| rng.gen::<f64>()).sum::<f64>()
            })
        };
        let reference = run(1);
        for threads in [2, 3, 5, 7, 13, 16] {
            assert_eq!(reference, run(threads), "threads={threads}");
        }
    }
}
