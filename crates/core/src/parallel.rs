//! Deterministic work-stealing fork/join helpers for the embarrassingly
//! parallel fan-out loops (bound-set candidate evaluation, per-ingredient
//! implementation).
//!
//! The build is offline, so there is no rayon: workers are plain
//! [`std::thread::scope`] threads. Work items are pre-split into blocks
//! (several per worker) and workers *claim* blocks from a shared atomic
//! cursor, so a worker that finishes its share early steals the blocks a
//! slow worker never reached — the slowest single block, not the slowest
//! static chunk, bounds the wall clock. Every result still lands at its
//! input index during the final merge, so callers observe *input order*
//! regardless of which worker computed what: the parallel paths are
//! bit-for-bit deterministic with the sequential ones at any thread count.
//!
//! The worker count comes from [`thread_count`]: the `HYDE_THREADS`
//! environment variable when set (clamped to `1..=256`), otherwise the
//! machine's available parallelism. With one worker the helpers degrade to
//! a plain loop on the calling thread — no threads are spawned.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the worker count accepted from `HYDE_THREADS`.
const MAX_THREADS: usize = 256;

/// Target number of claimable blocks per worker. More blocks mean finer
/// stealing granularity (better balance under skewed item costs); fewer
/// amortize the atomic claim better. Eight is the usual sweet spot.
const BLOCKS_PER_WORKER: usize = 8;

/// Number of worker threads the parallel fan-out loops use.
///
/// Resolution order: `HYDE_THREADS` (values outside `1..=256` are
/// clamped, unparsable values ignored), then
/// [`std::thread::available_parallelism`], then 1.
pub fn thread_count() -> usize {
    // sa:allow(SA002): thread count only partitions work; the input-order
    // merge is fixed, so results stay byte-identical at any width
    // (tests/parallel_determinism.rs proves it).
    if let Ok(v) = std::env::var("HYDE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_THREADS);
        }
    }
    // sa:allow(SA002): same as above — width never affects results.
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether workers of a fan-out spawned on the current thread should
/// claim the stable per-worker obs tracks (`worker-0`, `worker-1`, ...).
/// Only top-level fan-outs (spawned from the main track) do; nested
/// fan-outs fall back to auto-assigned tracks so two live threads never
/// share a lane.
fn claim_worker_tracks() -> bool {
    hyde_obs::enabled() && hyde_obs::current_track() == hyde_obs::MAIN_TRACK
}

/// Applies `f` to every item of `items`, returning the results in input
/// order. Runs on `threads` scoped workers via the work-stealing block
/// scheduler; `threads <= 1` (or a short input) runs inline.
///
/// `label` names the per-worker span recorded when tracing is active (one
/// span per worker, on that worker's track), making the fan-out visible
/// in Chrome-trace exports.
///
/// `f` must be deterministic per item for the parallel and sequential
/// paths to agree; the merge itself preserves input order by construction.
pub fn map_chunked<T, R, F>(label: &'static str, items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_chunked_init(label, items, threads, || (), |(), item| f(item))
}

/// Like [`map_chunked`], but each worker first builds private state with
/// `init` (e.g. its own scorer scratch) and threads it through every
/// block it claims.
///
/// `init` runs once per worker, so it may be expensive relative to a
/// single item; results still land at their input indices. `label` names
/// the per-worker span as in [`map_chunked`].
///
/// Scheduling: items are pre-split into `min(threads * 8, len)` equal
/// blocks with fixed boundaries; workers claim block indices from one
/// shared atomic cursor and compute each claimed block into a private
/// buffer. After the scope joins, blocks are merged back at their input
/// positions. The schedule (who computed what) is timing-dependent. If
/// `f`'s result depends only on its item, the output is byte-identical at
/// any `HYDE_THREADS` — the property checked by hyde-sa's SA011 pass on
/// every worker closure.
///
/// State that carries information from one item to the next (such as the
/// λ-search's incumbent class count) makes per-item results depend on the
/// schedule. The one guarantee such a caller may build on: every worker
/// sees its items in increasing input order, because it claims blocks in
/// increasing cursor order and walks each block front to back. The
/// caller must then reduce the results to something the schedule cannot
/// change, as `VariablePartitioner`'s argmin does.
///
/// Obs counters (recorded only while tracing is enabled):
/// `sched.steal.blocks` (blocks scheduled) and `sched.steal.steals`
/// (blocks claimed by a worker other than its static home worker — the
/// amount of rebalancing the stealer performed over a static split).
pub fn map_chunked_init<T, R, S, I, F>(
    label: &'static str,
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        let _obs = hyde_obs::enter_chunk(label);
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let nblocks = (threads * BLOCKS_PER_WORKER).min(items.len());
    let cursor = AtomicUsize::new(0);
    let claim = claim_worker_tracks();
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut steals = 0u64;
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let init = &init;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    if claim {
                        hyde_obs::worker_track(w);
                    }
                    let _obs = hyde_obs::enter_chunk(label);
                    let mut state = init();
                    let mut blocks: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        let lo = b * items.len() / nblocks;
                        let hi = (b + 1) * items.len() / nblocks;
                        let mut out = Vec::with_capacity(hi - lo);
                        for item in &items[lo..hi] {
                            out.push(f(&mut state, item));
                        }
                        blocks.push((b, out));
                    }
                    blocks
                })
            })
            .collect();
        // Merge in worker order; every block lands at its fixed input
        // range, so the claim schedule cannot leak into the output.
        for (w, handle) in handles.into_iter().enumerate() {
            let blocks = handle.join().expect("scheduler worker panicked");
            for (b, out) in blocks {
                // The static split would have given block b to this home
                // worker; a different claimant is a steal.
                if b * threads / nblocks != w {
                    steals += 1;
                }
                let lo = b * items.len() / nblocks;
                for (offset, r) in out.into_iter().enumerate() {
                    results[lo + offset] = Some(r);
                }
            }
        }
    });
    if hyde_obs::enabled() {
        hyde_obs::counter("sched.steal.blocks", nblocks as u64);
        hyde_obs::counter("sched.steal.steals", steals);
    }
    results
        .into_iter()
        .map(|r| r.expect("every block was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_threaded_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = map_chunked("test.sq", &items, 1, |&x| x * x + 1);
        for t in [2, 3, 8, 64] {
            assert_eq!(
                map_chunked("test.sq", &items, t, |&x| x * x + 1),
                seq,
                "{t} threads"
            );
        }
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..17).rev().collect();
        let out = map_chunked("test.id", &items, 4, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_chunked("test.id", &empty, 8, |&x| x).is_empty());
        assert_eq!(map_chunked("test.id", &[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(
            map_chunked("test.dbl", &items, 100, |&x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn init_variant_matches_plain_map() {
        let items: Vec<u64> = (0..321).collect();
        let plain = map_chunked("test.tri", &items, 1, |&x| x * 3);
        for t in [1, 2, 7, 32] {
            // State tracks a per-worker running offset that must NOT leak
            // into results (each item's output depends only on the item).
            let out = map_chunked_init(
                "test.tri",
                &items,
                t,
                || 0u64,
                |seen, &x| {
                    *seen += 1;
                    x * 3
                },
            );
            assert_eq!(out, plain, "{t} threads");
        }
    }

    #[test]
    fn stealing_rebalances_skewed_items() {
        // One pathologically slow item at the front: a static split would
        // serialize the whole first chunk behind it; the stealer lets the
        // other workers drain every remaining block. We can't assert
        // timing, but we can assert correctness under heavy skew.
        let items: Vec<u64> = (0..500).collect();
        let slow = |&x: &u64| {
            if x == 0 {
                // Busy-ish work: a deterministic hash chain.
                let mut acc = 0x9E37_79B9u64;
                for i in 0..50_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                acc % 2 + x
            } else {
                x
            }
        };
        let seq = map_chunked("test.skew", &items, 1, slow);
        let par = map_chunked("test.skew", &items, 8, slow);
        assert_eq!(seq, par);
    }

    #[test]
    fn block_boundaries_tile_the_input() {
        // Every (len, threads) pair must cover each index exactly once.
        for len in [2usize, 3, 7, 64, 100, 257] {
            for threads in [2usize, 3, 8, 16] {
                let nblocks = (threads * BLOCKS_PER_WORKER).min(len);
                let mut seen = vec![0u8; len];
                for b in 0..nblocks {
                    let lo = b * len / nblocks;
                    let hi = (b + 1) * len / nblocks;
                    assert!(lo < hi, "empty block {b} for len {len}");
                    for s in &mut seen[lo..hi] {
                        *s += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s == 1),
                    "len {len} threads {threads} not tiled exactly once"
                );
            }
        }
    }

    #[test]
    fn stateless_and_stateful_entry_points_agree() {
        let items: Vec<u64> = (0..123).collect();
        let a = map_chunked("test.eq", &items, 4, |&x| x ^ 0xFF);
        let b = map_chunked_init("test.eq", &items, 4, || (), |(), &x| x ^ 0xFF);
        assert_eq!(a, b);
    }
}
