//! Deterministic, panic-safe parallel map on std scoped threads.
//!
//! Every figure point repeats its experiment over 15 seeded topologies and
//! several algorithms; the repetitions are embarrassingly parallel and
//! independent of execution order, so a simple atomic-counter work queue
//! over scoped threads is all that is needed — results land in their input
//! slot, making the output identical to the sequential map regardless of
//! scheduling (the guides' "same result as the sequential counterpart"
//! contract).
//!
//! Two properties the experiment schedulers lean on:
//!
//! * **Panic propagation.** A panicking item is caught with
//!   [`catch_unwind`], the remaining workers drain cleanly (in-flight items
//!   finish, no new items are claimed), and the *original* payload is
//!   re-raised on the caller thread with [`resume_unwind`] — so diagnostics
//!   like the runner's "X produced an infeasible solution" panic survive
//!   verbatim instead of being replaced by a scope-join `.expect` message.
//! * **Nesting safety.** A `par_map` reached from inside a worker (e.g. a
//!   flattened seed×algorithm task whose cell itself maps over something)
//!   falls back to a sequential loop on that worker thread, so nested
//!   invocations never oversubscribe the machine with `workers²` threads.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use edgerep_obs as obs;

thread_local! {
    /// Set while the current thread runs `par_map` items as a worker;
    /// nested calls observe it and take the sequential path.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The first caught worker panic: item index plus the original payload.
type FirstPanic = Option<(usize, Box<dyn Any + Send>)>;

/// Parallel `map` preserving input order. Uses up to
/// `available_parallelism` worker threads (capped by the item count);
/// falls back to a sequential loop for tiny inputs and for nested
/// invocations from inside another `par_map`'s worker.
///
/// If `f` panics for some item, every worker stops claiming new items,
/// in-flight items run to completion, and the lowest-indexed caught
/// payload is re-raised verbatim on the calling thread.
///
/// When the `parallel` observability target is enabled, per-item wall time
/// lands in the `span.parallel.item_us` histogram and the fleet-wide
/// utilization (busy time over `workers × wall`) in the
/// `parallel.utilization` gauge; disabled, the loop takes no clock
/// readings at all.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if n <= 1 || workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().map(&f).collect();
    }

    // Gated once per call: the item loop never touches the filter.
    let timed = obs::enabled("parallel");
    let item_hist = timed.then(|| obs::histogram("span.parallel.item_us"));
    let started = timed.then(Instant::now);
    let busy_us = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<FirstPanic> = Mutex::new(None);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let next = &next;
            let abort = &abort;
            let first_panic = &first_panic;
            let busy_us = &busy_us;
            let item_hist = &item_hist;
            let tx = tx.clone();
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let mut local_busy_us = 0u64;
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break; // drain: finish nothing new after a panic
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = item_hist.as_ref().map(|_| Instant::now());
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => {
                            if let (Some(h), Some(t0)) = (item_hist.as_ref(), t0) {
                                let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                                h.record(us);
                                local_busy_us += us;
                            }
                            tx.send((i, r)).expect("receiver outlives the scope");
                        }
                        Err(payload) => {
                            let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                            // Keep the lowest-indexed payload: when several
                            // items fail in one call the surfaced diagnostic
                            // is as stable as the schedule allows.
                            let replace = match slot.as_ref() {
                                None => true,
                                Some((j, _)) => i < *j,
                            };
                            if replace {
                                *slot = Some((i, payload));
                            }
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                }
                busy_us.fetch_add(local_busy_us, Ordering::Relaxed);
            });
        }
        drop(tx); // workers hold the remaining senders
    });

    let caught = first_panic.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some((index, payload)) = caught {
        obs::counter("parallel.panics").inc();
        if timed {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            obs::emit(
                "parallel",
                "parallel.par_map",
                "par_map.item_panic",
                &[("item", index.into()), ("message", message.into())],
            );
        }
        resume_unwind(payload);
    }

    if let Some(started) = started {
        let wall_s = started.elapsed().as_secs_f64();
        let busy_s = busy_us.load(Ordering::Relaxed) as f64 / 1e6;
        let utilization = if wall_s > 0.0 {
            (busy_s / (wall_s * workers as f64)).min(1.0)
        } else {
            0.0
        };
        obs::counter("parallel.items").add(n as u64);
        obs::gauge("parallel.utilization").set(utilization);
        obs::emit(
            "parallel",
            "parallel.par_map",
            "par_map.done",
            &[
                ("items", n.into()),
                ("workers", workers.into()),
                ("wall_s", wall_s.into()),
                ("busy_s", busy_s.into()),
                ("utilization", utilization.into()),
            ],
        );
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx.try_iter() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot written by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..100).collect();
        let par = par_map(&items, |&x| x * x + 1);
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert!(par_map(&items, |&x| x).is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn order_preserved_under_uneven_work() {
        // Earlier items take longer; results must still line up.
        let items: Vec<u64> = (0..32).collect();
        let par = par_map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 10
        });
        assert_eq!(par, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_types_move_correctly() {
        let items: Vec<usize> = (0..20).collect();
        let par = par_map(&items, |&x| vec![x; x]);
        for (i, v) in par.iter().enumerate() {
            assert_eq!(v.len(), i);
        }
    }

    #[test]
    fn panic_payload_propagates_verbatim() {
        let items: Vec<u32> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 13 {
                    panic!("item {x} produced an infeasible solution");
                }
                x
            })
        }))
        .expect_err("a panicking item must fail the map");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panics carry String payloads");
        assert_eq!(msg, "item 13 produced an infeasible solution");
    }

    #[test]
    fn static_str_panic_payload_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 5 {
                    panic!("static boom");
                }
                x
            })
        }))
        .expect_err("a panicking item must fail the map");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "static boom");
    }

    #[test]
    fn all_items_panicking_surfaces_one_original_payload() {
        let items: Vec<usize> = (0..40).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| -> usize { panic!("boom at item {x}") })
        }))
        .expect_err("every item panics");
        let msg = err.downcast_ref::<String>().unwrap();
        let index: usize = msg
            .strip_prefix("boom at item ")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("payload was rewritten: {msg}"));
        assert!(index < items.len());
    }

    #[test]
    fn par_map_survives_a_previous_panic() {
        // No poisoned global state: a panicking call must not break the
        // next one.
        let items: Vec<u32> = (0..16).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 0 {
                    panic!("first call dies");
                }
                x
            })
        }));
        assert_eq!(par_map(&items, |&x| x + 1), (1..17).collect::<Vec<u32>>());
    }

    #[test]
    fn nested_invocation_stays_on_the_worker_thread() {
        // An inner par_map reached from inside a worker must run
        // sequentially on that same thread (no worker² oversubscription).
        // On a single-core runner both levels are sequential on the caller
        // thread, which satisfies the same property trivially.
        let outer: Vec<u64> = (0..8).collect();
        let sums = par_map(&outer, |&x| {
            let outer_thread = std::thread::current().id();
            let inner: Vec<u64> = (0..16).collect();
            let inner_vals = par_map(&inner, |&y| {
                assert_eq!(
                    std::thread::current().id(),
                    outer_thread,
                    "nested par_map left its worker thread"
                );
                x * 100 + y
            });
            inner_vals.iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| (0..16).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn nested_panic_propagates_through_both_levels() {
        let outer: Vec<u64> = (0..4).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&outer, |&x| {
                let inner: Vec<u64> = (0..4).collect();
                par_map(&inner, |&y| {
                    if x == 2 && y == 3 {
                        panic!("inner failure at ({x}, {y})");
                    }
                    y
                })
                .len()
            })
        }))
        .expect_err("inner panic must surface");
        let msg = err.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "inner failure at (2, 3)");
    }
}
