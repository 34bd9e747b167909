//! Minimal data-parallel helper over `std::thread::scope` — the in-repo
//! replacement for the `rayon` pattern the workspace uses (enumerated
//! parallel chunks), under the offline-build policy of no registry
//! dependencies.
//!
//! Work is distributed dynamically: workers pull chunk indices from a
//! shared atomic cursor, so uneven per-chunk cost (LIC row bands over a
//! half-stagnant field) still balances. The calling thread is one of the
//! workers, so a call spawns one thread fewer than it uses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Cores this process may use, read once: `available_parallelism` reads
/// the affinity mask and cgroup files on every call, and a solver step
/// makes two calls.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker count: one per available core, capped so tiny inputs don't pay
/// spawn overhead for idle threads.
fn workers_for(items: usize) -> usize {
    cores().min(items).max(1)
}

/// Parallel enumerated chunks: split `data` into consecutive
/// `chunk`-sized pieces and run `f(chunk_index, piece)` across threads —
/// the `par_chunks_mut().enumerate().for_each()` pattern.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let pieces: Vec<(usize, &mut [T])> = data.chunks_mut(chunk).enumerate().collect();
    let n = pieces.len();
    let workers = workers_for(n);
    if workers <= 1 {
        for (i, piece) in pieces {
            f(i, piece);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let pieces = Mutex::new(pieces.into_iter().map(Some).collect::<Vec<_>>());
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let (idx, piece) = pieces.lock().unwrap()[i].take().expect("chunk taken twice");
        f(idx, piece);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 7, |idx, piece| {
            for v in piece.iter_mut() {
                *v += idx as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 7) as u32 + 1, "element {i}");
        }
    }

    #[test]
    fn a_single_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 16];
        par_chunks_mut(&mut data, 16, |_, _| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // one chunk per worker, each held at a barrier until all have
        // started: no thread can take a second chunk, so every worker —
        // the caller among them — runs exactly one
        let workers = workers_for(usize::MAX);
        let barrier = std::sync::Barrier::new(workers);
        let mut ran_on = vec![None; workers];
        par_chunks_mut(&mut ran_on, 1, |_, slot| {
            slot[0] = Some(std::thread::current().id());
            barrier.wait();
        });
        assert!(ran_on.contains(&Some(std::thread::current().id())), "{ran_on:?}");
    }
}
