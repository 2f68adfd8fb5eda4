//! The seal farm: a batch's cold-start seals as parallel pool work.
//!
//! Sealing is the provider-side cost of SOFIA's install-time story
//! (paper §II-C): every `(device keys, program)` pair a batch admits
//! cold must run the full transform — lower, CFG, pack, mux trees,
//! MAC-then-encrypt — before its first instruction simulates. Left to
//! the job path, a multi-tenant cold-start wave convoys those seals:
//! each worker stalls on its own job's install, and with fewer distinct
//! images than workers the [`ImageCache`]'s single-flight turns the
//! wave into a queue.
//!
//! The farm instead shards the *distinct* seal requests of a wave
//! across a scoped set of worker threads:
//!
//! * **Single-flight by construction** — requests are deduplicated on
//!   their [`ImageKey`] before distribution, so N concurrent requests
//!   for one image become exactly one seal task whose `Arc` every
//!   waiter shares (the cache's own in-progress marker still guards
//!   against seals racing in from outside the farm);
//! * **One claim cursor** — workers claim tasks by index off a single
//!   shared atomic counter over the deduplicated list, the scheme the
//!   async driver's pool dispatches lanes with. Seal tasks never
//!   re-queue, so a worker whose claim runs past the end simply exits —
//!   no per-worker deques and no parking protocol;
//! * **Cache-mediated** — every seal goes through
//!   [`ImageCache::get_or_seal_traced`], so farm-sealed images land in
//!   the shared cache with normal hit/miss accounting, and later
//!   batches (or inline callers) reuse them.
//!
//! Failures are reported per key but never cached (matching the
//! cache's own policy): a failed request re-attempts — and fails
//! identically, seals are deterministic — wherever it is retried.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::fleet::{into_clean, lock_clean};

use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache, ImageKey, SealError};
use sofia_transform::SecureImage;

/// How one distinct seal request fared.
#[derive(Clone, Debug)]
pub struct SealVerdict {
    /// The sealed image, or why sealing failed.
    pub image: Result<Arc<SecureImage>, SealError>,
    /// Whether *this wave* ran the transformer (a cache miss). `false`
    /// means the image was already cached — the wave only shared it.
    pub fresh: bool,
}

/// Everything one [`SealFarm::seal_wave`] call produced.
#[derive(Debug, Default)]
pub struct SealWave {
    /// One verdict per **distinct** [`ImageKey`] in the wave.
    pub verdicts: HashMap<ImageKey, SealVerdict>,
    /// Requests before deduplication.
    pub requests: usize,
    /// Distinct images the wave actually needed (`verdicts.len()`).
    pub distinct: usize,
}

/// A parallel sealer over a shared [`ImageCache`].
///
/// # Examples
///
/// ```
/// use sofia_crypto::KeySet;
/// use sofia_fleet::SealFarm;
/// use sofia_transform::cache::{image_key, ImageCache};
///
/// let cache = ImageCache::new();
/// let farm = SealFarm::new(&cache, 4);
/// let keys = KeySet::from_seed(1);
/// // Three requests, two distinct images: the duplicate is deduplicated
/// // before any worker sees it.
/// let wave = farm.seal_wave(&[
///     (&keys, "main: halt"),
///     (&keys, "main: halt"),
///     (&keys, "main: nop\n halt"),
/// ]);
/// assert_eq!((wave.requests, wave.distinct), (3, 2));
/// assert!(wave.verdicts[&image_key(&keys, "main: halt")].fresh);
/// assert_eq!(cache.stats().misses, 2);
/// ```
pub struct SealFarm<'a> {
    cache: &'a ImageCache,
    workers: usize,
}

impl<'a> SealFarm<'a> {
    /// A farm sealing into `cache` with `workers` threads (clamped to
    /// ≥ 1).
    pub fn new(cache: &'a ImageCache, workers: usize) -> SealFarm<'a> {
        SealFarm {
            cache,
            workers: workers.max(1),
        }
    }

    /// Seals every distinct `(keys, source)` of `requests`, in parallel
    /// across the farm's workers, and returns the per-key verdicts.
    ///
    /// Duplicate requests collapse to one task (single-flight); the
    /// first occurrence's key material drives the seal. With one worker
    /// — or one distinct image — the wave runs on the calling thread,
    /// spawning nothing.
    pub fn seal_wave(&self, requests: &[(&KeySet, &str)]) -> SealWave {
        let total = requests.len();
        // Single-flight: one task per distinct image key, first
        // occurrence wins (identical keys ⇒ identical seal inputs, so
        // which occurrence runs is immaterial).
        let mut seen = HashSet::new();
        let mut tasks: Vec<(ImageKey, &KeySet, &str)> = Vec::new();
        for &(keys, source) in requests {
            let key = image_key(keys, source);
            if seen.insert(key) {
                tasks.push((key, keys, source));
            }
        }
        let distinct = tasks.len();

        // The transformer is pure library code, but a panic inside it
        // must not cost the wave its worker (and, through the poisoned
        // verdict lock, the whole farm): a panicking seal task is caught
        // and simply yields no verdict, so the requesting job re-seals
        // inline — where the same panic becomes that one job's typed
        // `WorkerPanic` record instead of a farm-wide abort.
        let seal_one = |(key, keys, source): (ImageKey, &KeySet, &str)| {
            let sealed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.cache.get_or_seal_traced(keys, source)
            }))
            .ok()?;
            let (image, from_cache) = match sealed {
                Ok((image, from_cache)) => (Ok(image), from_cache),
                Err(e) => (Err(e), false),
            };
            Some((
                key,
                SealVerdict {
                    image,
                    fresh: !from_cache,
                },
            ))
        };

        let workers = self.workers.min(distinct);
        if workers <= 1 {
            return SealWave {
                verdicts: tasks.into_iter().filter_map(seal_one).collect(),
                requests: total,
                distinct,
            };
        }

        // Claim-by-index: each worker takes the next unclaimed task off
        // one shared cursor until the list runs out.
        let next = AtomicUsize::new(0);
        let verdicts: Mutex<HashMap<ImageKey, SealVerdict>> = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(&task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if let Some((key, verdict)) = seal_one(task) {
                            lock_clean(&verdicts).insert(key, verdict);
                        }
                    }
                });
            }
        });
        SealWave {
            verdicts: into_clean(verdicts),
            requests: total,
            distinct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_seals_each_distinct_image_once() {
        let cache = ImageCache::new();
        let farm = SealFarm::new(&cache, 4);
        let tenants: Vec<KeySet> = (0..6).map(|s| KeySet::from_seed(s + 1)).collect();
        let requests: Vec<(&KeySet, &str)> = tenants
            .iter()
            .flat_map(|k| [(k, "main: halt"), (k, "main: halt")])
            .collect();
        let wave = farm.seal_wave(&requests);
        assert_eq!((wave.requests, wave.distinct), (12, 6));
        assert_eq!(wave.verdicts.len(), 6);
        assert!(wave.verdicts.values().all(|v| v.fresh && v.image.is_ok()));
        assert_eq!(cache.stats().misses, 6, "one seal per distinct image");
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn warm_images_are_shared_not_resealed() {
        let cache = ImageCache::new();
        let keys = KeySet::from_seed(9);
        let warm = cache.get_or_seal(&keys, "main: halt").unwrap();
        let farm = SealFarm::new(&cache, 2);
        let wave = farm.seal_wave(&[(&keys, "main: halt")]);
        let verdict = &wave.verdicts[&image_key(&keys, "main: halt")];
        assert!(!verdict.fresh);
        assert!(Arc::ptr_eq(verdict.image.as_ref().unwrap(), &warm));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn failures_surface_per_key_and_are_not_cached() {
        let cache = ImageCache::new();
        let keys = KeySet::from_seed(3);
        let farm = SealFarm::new(&cache, 2);
        let wave = farm.seal_wave(&[(&keys, "main: bogus t9"), (&keys, "main: halt")]);
        assert_eq!(wave.distinct, 2);
        assert!(wave.verdicts[&image_key(&keys, "main: bogus t9")]
            .image
            .is_err());
        assert!(wave.verdicts[&image_key(&keys, "main: halt")].image.is_ok());
        assert_eq!(cache.stats().entries, 1, "failures are not cached");
    }
}
