//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace-local package provides the (small) slice of rayon's API the
//! repo actually uses — `par_iter`/`par_iter_mut`, `filter_map`, `zip`,
//! `for_each`, `collect`, `current_num_threads` — with the same semantics:
//! closures run across OS threads via `std::thread::scope`, and results
//! keep slice order.
//!
//! It is intentionally minimal, not a general parallel-iterator library;
//! grow it as call sites need more of the real rayon surface.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// How many worker threads a parallel call fans out over (one per
/// available core), as in rayon.
pub fn current_num_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub mod prelude {
    pub use crate::{ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Entry point: `slice.par_iter()`.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Entry point: `slice.par_iter_mut()`.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { items: self }
    }
}

/// Marker trait so `use rayon::prelude::*` keeps reading like rayon.
pub trait ParallelIterator {}

pub struct ParIter<'a, T> {
    items: &'a [T],
}

pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<T> ParallelIterator for ParIter<'_, T> {}
impl<T> ParallelIterator for ParIterMut<'_, T> {}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> Option<R> + Sync,
    {
        ParFilterMap {
            items: self.items,
            f,
        }
    }

    pub fn zip<U: Send>(self, other: ParIterMut<'a, U>) -> ParZipMut<'a, T, U> {
        ParZipMut {
            a: self.items,
            b: other.items,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        par_chunked(self.items.len(), |lo, hi| {
            for it in &self.items[lo..hi] {
                f(it);
            }
        });
    }
}

pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        par_collect(self.items, |it| Some(f(it))).into()
    }
}

pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> Option<R> + Sync> ParFilterMap<'a, T, F> {
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        par_collect(self.items, f).into()
    }
}

pub struct ParZipMut<'a, T, U> {
    a: &'a [T],
    b: &'a mut [U],
}

impl<T: Sync, U: Send> ParZipMut<'_, T, U> {
    /// `for_each` over `(&T, &mut U)` pairs, in parallel chunks.
    pub fn for_each<F>(self, f: F)
    where
        F: for<'b> Fn((&'b T, &'b mut U)) + Sync,
    {
        let n = self.a.len().min(self.b.len());
        let a = &self.a[..n];
        let b = &mut self.b[..n];
        let nw = current_num_threads().min(n.max(1));
        let chunk = n.div_ceil(nw.max(1)).max(1);
        thread::scope(|s| {
            let mut rest: &mut [U] = b;
            let mut lo = 0;
            while lo < n {
                let take = chunk.min(n - lo);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                let f = &f;
                let a = &a[lo..lo + take];
                s.spawn(move || {
                    for (x, y) in a.iter().zip(head.iter_mut()) {
                        f((x, y));
                    }
                });
                lo += take;
            }
        });
    }
}

/// Runs `f(lo, hi)` over disjoint index ranges covering `0..n`, one range
/// per worker thread.
fn par_chunked<F: Fn(usize, usize) + Sync>(n: usize, f: F) {
    if n == 0 {
        return;
    }
    let nw = current_num_threads().min(n);
    let chunk = n.div_ceil(nw).max(1);
    thread::scope(|s| {
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let f = &f;
            s.spawn(move || f(lo, hi));
            lo = hi;
        }
    });
}

/// Order-preserving parallel filter-map over a slice. Workers pull the
/// next index from a shared counter, so uneven item costs balance across
/// threads instead of one fixed range per worker setting the makespan.
fn par_collect<'a, T: Sync, R: Send>(
    items: &'a [T],
    f: impl Fn(&'a T) -> Option<R> + Sync,
) -> Vec<R> {
    let n = items.len();
    let nw = current_num_threads().min(n);
    if nw <= 1 {
        return items.iter().filter_map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..nw)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("rayon shim worker panicked") {
                slots[i] = r;
            }
        }
    });
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn filter_map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = v
            .par_iter()
            .filter_map(|&x| if x % 3 == 0 { Some(x * 2) } else { None })
            .collect();
        let want: Vec<u32> = (0..1000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn zip_for_each_writes_every_slot() {
        let keys: Vec<usize> = (0..37).collect();
        let mut vals = vec![0usize; 37];
        keys.par_iter()
            .zip(vals.par_iter_mut())
            .for_each(|(&k, v)| *v = k + 1);
        assert!(vals.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn map_collect() {
        let v = [1, 2, 3];
        let out: Vec<i32> = v.par_iter().map(|x| x * 10).collect();
        assert_eq!(out, vec![10, 20, 30]);
    }
}
