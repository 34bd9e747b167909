//! Minimal data-parallel helper over `std::thread::scope` — the in-repo
//! replacement for the `rayon` pattern the workspace uses (enumerated
//! parallel chunks), under the offline-build policy of no registry
//! dependencies.
//!
//! Work is distributed dynamically: workers pull chunk indices from a
//! shared atomic cursor, so uneven per-chunk cost (LIC row bands over a
//! half-stagnant field) still balances.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count: one per available core, capped so tiny inputs don't pay
/// spawn overhead for idle threads.
fn workers_for(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(items).max(1)
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
    let pieces = std::sync::Mutex::new(pieces.into_iter().map(Some).collect::<Vec<_>>());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            let pieces = &pieces;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (idx, piece) = pieces.lock().unwrap()[i].take().expect("chunk taken twice");
                f(idx, piece);
            });
        }
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
}
