//! Thread-safe build-once cache for expensive sweep artefacts.
//!
//! A parameter sweep frequently revisits the same topology: a saturation grid
//! evaluates ten injection rates against one `(kind, nodes, seed)` graph, a
//! latency curve reuses its instance per rate, and multi-pattern studies
//! rebuild identical networks per pattern. [`BuildCache`] memoises those
//! builds behind `Arc`s so concurrent jobs share one generated instance.
//!
//! The cache is one map behind one mutex, and it never evicts: a cache
//! belongs to one run, whose grid names a bounded set of keys. Correctness
//! never depends on a hit — builders are pure functions of the key — so
//! the cache only shapes rebuild time.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A map from sweep keys to shared build artefacts, each built once.
#[derive(Debug)]
pub struct BuildCache<K, V> {
    entries: Mutex<HashMap<K, Arc<V>>>,
}

impl<K: Eq + Hash, V> Default for BuildCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> BuildCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<V>>> {
        self.entries.lock().expect("build cache poisoned")
    }

    /// Returns the cached artefact for `key`, building it with `build` on a
    /// miss.
    ///
    /// The build runs *outside* the lock, so a slow topology generation
    /// never blocks other workers' lookups; if two workers race on the same
    /// missing key, the first insert wins and the loser's build is dropped.
    /// `build` must be a pure function of `key` for that to be sound — which
    /// is exactly the determinism contract sweeps already obey.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; errors are not cached.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.lock().get(&key) {
            // Hit/miss counts depend on which worker reaches a key first,
            // hence the nondeterministic `sched.` namespace.
            sf_obs::metrics::global().counter_add("sched.cache_hits", 1);
            return Ok(Arc::clone(hit));
        }
        sf_obs::metrics::global().counter_add("sched.cache_misses", 1);
        let built = Arc::new(build()?);
        Ok(Arc::clone(self.lock().entry(key).or_insert(built)))
    }

    /// Number of cached artefacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no artefacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn second_lookup_reuses_the_first_build() {
        let cache: BuildCache<(u32, u32), String> = BuildCache::new();
        let builds = AtomicUsize::new(0);
        let build = || -> Result<String, ()> {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok("artefact".to_string())
        };
        let a = cache.get_or_build((1, 2), build).unwrap();
        let b = cache.get_or_build((1, 2), build).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: BuildCache<u32, u32> = BuildCache::new();
        let result: Result<_, &str> = cache.get_or_build(7, || Err("nope"));
        assert!(result.is_err());
        assert!(cache.is_empty());
        let ok: Result<_, &str> = cache.get_or_build(7, || Ok(49));
        assert_eq!(*ok.unwrap(), 49);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache: BuildCache<u32, u32> = BuildCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for key in 0..32 {
                        let value = cache.get_or_build::<()>(key, || Ok(key * 3)).unwrap();
                        assert_eq!(*value, key * 3);
                    }
                });
            }
        });
    }
}
