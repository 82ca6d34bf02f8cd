//! Scoped-thread data-parallel helpers built on [`std::thread::scope`].
//!
//! The RustFI stack uses plain data parallelism in two places: large matrix
//! multiplies inside convolution, and fault-injection campaigns that fan
//! independent trials across worker threads. Both are expressed with the two
//! helpers here, so thread management lives in exactly one module. The
//! threads they spawn are marked as workers, and a helper called from inside
//! a worker runs inline on it: a campaign worker's batched convolution never
//! spawns (and tears down) threads of its own on every call.
//!
//! The [`shield`] submodule is the campaign-resilience primitive: it runs a
//! closure under [`std::panic::catch_unwind`] while suppressing the global
//! panic hook's stderr spew for that thread, so a deliberately isolated
//! panicking trial neither kills the worker nor floods the terminal.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on every thread the helpers below spawn.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads a helper may fan `items` across: one (inline) when the caller is
/// itself a worker of an enclosing helper.
fn fan_out(items: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        worker_count().min(items)
    }
}

/// Marks the current (freshly spawned) thread as a worker for its lifetime.
fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Number of worker threads to use (cached; at least 1).
pub fn worker_count() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Splits `out` into contiguous chunks of `rows_per_item * item_width`
/// elements and runs `f(first_item_index, items_in_chunk, chunk)` on worker
/// threads.
///
/// `out.len()` must be a multiple of `item_width`. Items are the unit of
/// distribution; each worker receives a contiguous run of items.
///
/// # Panics
///
/// Panics if `item_width == 0` or `out.len()` is not a multiple of it, or if
/// a worker panics.
pub fn for_each_chunk_mut<F>(out: &mut [f32], item_width: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert!(item_width > 0, "item_width must be positive");
    assert_eq!(
        out.len() % item_width,
        0,
        "output length {} is not a multiple of item width {}",
        out.len(),
        item_width
    );
    let items = out.len() / item_width;
    if items == 0 {
        return;
    }
    let workers = fan_out(items);
    if workers <= 1 {
        f(0, items, out);
        return;
    }
    let per = items.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut start = 0;
        while start < items {
            let take = per.min(items - start);
            let (head, tail) = rest.split_at_mut(take * item_width);
            rest = tail;
            let fref = &f;
            let item_start = start;
            scope.spawn(move || {
                enter_worker();
                fref(item_start, take, head)
            });
            start += take;
        }
    });
}

/// Runs `f(i)` for every `i in 0..n` across worker threads and collects the
/// results in order.
///
/// Work is distributed by index striding through an atomic counter, so uneven
/// per-item cost still balances. Results are returned in input order. Called
/// from inside a worker, it runs every item in order on that thread.
///
/// # Panics
///
/// Panics if a worker panics.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = fan_out(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let fref = &f;
                let cref = &counter;
                scope.spawn(move || {
                    enter_worker();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cref.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, fref(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, v) in handle.join().expect("parallel worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker skipped an index"))
        .collect()
}

/// Panic containment for fault-injection trials.
///
/// A fault-injection campaign deliberately drives models into pathological
/// states; a trial that panics (an index assert tripped by an extreme
/// perturbation, an interrupt raised by a guard hook) must be *recorded*,
/// not allowed to kill the worker thread — and must not spray a backtrace
/// for every isolated trial.
pub mod shield {
    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Once;

    thread_local! {
        static SHIELDED: Cell<bool> = const { Cell::new(false) };
    }

    /// Installs (once, process-wide) a panic hook that stays silent on
    /// threads currently inside [`run_quietly`] and delegates to the
    /// previously installed hook everywhere else.
    fn install_quiet_hook() {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !SHIELDED.with(Cell::get) {
                    prev(info);
                }
            }));
        });
    }

    /// Runs `f`, catching any panic it raises. While `f` runs, panics on
    /// this thread do not reach the panic hook's default stderr output;
    /// other threads are unaffected. Nested calls are safe.
    pub fn run_quietly<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
        install_quiet_hook();
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                SHIELDED.with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(SHIELDED.with(|s| s.replace(true)));
        catch_unwind(AssertUnwindSafe(f))
    }

    /// Best-effort human-readable message from a caught panic payload.
    pub fn payload_message(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            String::from("non-string panic payload")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn catches_and_describes_panics() {
            let caught = run_quietly(|| panic!("boom {}", 42)).unwrap_err();
            assert_eq!(payload_message(caught.as_ref()), "boom 42");
            let caught = run_quietly(|| std::panic::panic_any(7u32)).unwrap_err();
            assert_eq!(payload_message(caught.as_ref()), "non-string panic payload");
        }

        #[test]
        fn passes_values_through_on_success() {
            assert_eq!(run_quietly(|| 1 + 1).unwrap(), 2);
        }

        #[test]
        fn shield_flag_restores_after_nesting() {
            let outer = run_quietly(|| {
                let inner = run_quietly(|| panic!("inner"));
                assert!(inner.is_err());
                // Still shielded after the nested call returns.
                SHIELDED.with(Cell::get)
            });
            assert!(outer.unwrap());
            assert!(
                !SHIELDED.with(Cell::get),
                "flag cleared after outermost call"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn chunked_fill_covers_everything() {
        let mut out = vec![0.0f32; 12 * 5];
        for_each_chunk_mut(&mut out, 5, |start, items, slab| {
            for i in 0..items {
                for j in 0..5 {
                    slab[i * 5 + j] = (start + i) as f32;
                }
            }
        });
        for item in 0..12 {
            for j in 0..5 {
                assert_eq!(out[item * 5 + j], item as f32);
            }
        }
    }

    #[test]
    fn chunked_handles_empty() {
        let mut out: Vec<f32> = Vec::new();
        for_each_chunk_mut(&mut out, 4, |_, _, _| panic!("should not run"));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn chunked_rejects_misaligned_width() {
        let mut out = vec![0.0f32; 7];
        for_each_chunk_mut(&mut out, 2, |_, _, _| {});
    }

    #[test]
    fn map_indexed_preserves_order() {
        let v = map_indexed(100, |i| i * i);
        assert_eq!(v.len(), 100);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn map_indexed_empty() {
        let v: Vec<usize> = map_indexed(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn map_indexed_single() {
        assert_eq!(map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_calls_run_on_the_calling_worker() {
        use std::sync::atomic::AtomicBool;
        let outer = map_indexed(2, |_| {
            let me = std::thread::current().id();
            let inner = map_indexed(4, |_| std::thread::current().id());
            let stayed = AtomicBool::new(true);
            let mut out = vec![0.0f32; 8];
            for_each_chunk_mut(&mut out, 1, |_, _, _| {
                if std::thread::current().id() != me {
                    stayed.store(false, Ordering::Relaxed);
                }
            });
            inner.iter().all(|&t| t == me) && stayed.into_inner()
        });
        assert_eq!(outer, vec![true, true]);
    }
}
