//! Parallel fan-out shared by the SGB, MMP and CLP stages: an
//! order-preserving, dynamically scheduled map over a slice, built on
//! `std::thread::scope`, and its fallible variant.

use r2d2_lake::Result;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available, with a fallback of 1.
fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a user-facing thread knob: `0` means "use all hardware threads",
/// anything else is taken literally.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        current_num_threads()
    } else {
        threads
    }
}

/// Map `f` over `items` on up to `threads` worker threads, returning exactly
/// `items.iter().map(f).collect()` — same values, same order — regardless
/// of `threads`; only the execution interleaving differs.
///
/// `threads <= 1` runs inline on the caller's thread with no spawning, so a
/// single-threaded run has the same stack and panic behaviour as a plain
/// loop. Work is handed out item-by-item from an atomic counter, so uneven
/// item costs (e.g. containment edges over differently sized parents)
/// balance across workers.
pub(crate) fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Each worker drains indices from the shared counter and
                // buffers its results locally, taking the results lock once
                // per batch instead of once per item.
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                    if local.len() >= 64 {
                        let mut guard = results.lock().unwrap();
                        for (idx, v) in local.drain(..) {
                            guard[idx] = Some(v);
                        }
                    }
                }
                if !local.is_empty() {
                    let mut guard = results.lock().unwrap();
                    for (idx, v) in local.drain(..) {
                        guard[idx] = Some(v);
                    }
                }
            });
        }
    });

    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|v| v.expect("every index was processed"))
        .collect()
}

/// Map a fallible check over `items` on up to `threads` workers, returning
/// results in input order.
///
/// On success every item's result is returned, exactly aligned with `items`.
/// On failure the earliest (in input order) error among the items that ran
/// is returned, and a shared abort flag stops not-yet-started items from
/// doing any work — so a run that is going to fail does not first pay for a
/// full sweep (with `threads = 1` this matches the seed's behaviour of
/// stopping at the first erroring item; with more threads, items already in
/// flight finish but queued ones are skipped).
pub(crate) fn try_parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Result<U> + Sync,
{
    let abort = AtomicBool::new(false);
    let outcomes: Vec<Option<Result<U>>> = parallel_map(threads, items, |item| {
        if abort.load(Ordering::Relaxed) {
            return None;
        }
        let result = f(item);
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        Some(result)
    });

    let mut results = Vec::with_capacity(outcomes.len());
    let mut first_err = None;
    for outcome in outcomes {
        match outcome {
            Some(Ok(v)) => results.push(v),
            Some(Err(e)) if first_err.is_none() => first_err = Some(e),
            Some(Err(_)) | None => {}
        }
    }
    match first_err {
        Some(e) => Err(e),
        // Without an error the abort flag is never set, so no item was
        // skipped and `results` is aligned 1:1 with `items`.
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::LakeError;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let par = parallel_map(threads, &items, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        assert_eq!(resolve_threads(0), current_num_threads());
        assert_eq!(resolve_threads(3), 3);
        let items = [1, 2, 3];
        assert_eq!(parallel_map(0, &items, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(4, &empty, |x| *x).is_empty());
        assert_eq!(parallel_map(4, &[9], |x| x - 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let items: Vec<usize> = (0..200).collect();
        let out = parallel_map(8, &items, |&i| {
            if i % 17 == 0 {
                // Simulate an expensive item.
                let mut acc = 0u64;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_add(k.wrapping_mul(k));
                }
                std::hint::black_box(acc);
            }
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn success_keeps_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let out = try_parallel_map(threads, &items, |&x| Ok(x * 2)).unwrap();
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_error_short_circuits() {
        let items: Vec<u64> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let err = try_parallel_map(1, &items, |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(LakeError::InvalidArgument("boom".into()))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(matches!(err, LakeError::InvalidArgument(_)));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "items after the failing one must not run sequentially"
        );
    }

    #[test]
    fn parallel_error_propagates_and_aborts_queued_work() {
        let items: Vec<u64> = (0..10_000).collect();
        let ran = AtomicUsize::new(0);
        let err = try_parallel_map(4, &items, |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                Err(LakeError::InvalidArgument("boom".into()))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(matches!(err, LakeError::InvalidArgument(_)));
        assert!(
            ran.load(Ordering::Relaxed) < items.len(),
            "abort flag must stop queued items"
        );
    }
}
