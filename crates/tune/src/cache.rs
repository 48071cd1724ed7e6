//! Content-addressed evaluation cache.
//!
//! One tuned kernel is built and simulated many times by the layers above
//! the sweep: the sweep measures every candidate, the facade rebuilds the
//! winner for its traced report, the verifier rebuilds it again with a
//! binding log, and the degradation chain re-evaluates next-ranked
//! candidates it already measured. Every one of those is a pure function
//! of *(configuration, machine, step budget)* — the pipeline and the
//! simulator are deterministic — so the [`EvalCache`] memoizes them:
//!
//! * **builds** — keyed by `(config tag, machine fingerprint)` →
//!   [`LoggedBuild`] behind an [`Arc`] (the logged build subsumes the
//!   plain one: same assembly, same spans, plus the artifacts the
//!   verifier needs);
//! * **evaluations** — keyed by `(config tag, machine fingerprint,
//!   step budget)` → [`Evaluation`].
//!
//! The machine half of the key is [`MachineSpec::fingerprint`], which
//! hashes everything that can change a simulated measurement, so
//! ISA-clamped variants of the same microarchitecture never alias.
//!
//! Telemetry stays honest across hits: a build records its labels (e.g.
//! `opt.simd_strategy`) into a private collector via [`Tee`] while
//! forwarding everything to the live tracer; a later hit replays *only
//! the labels* — last-write-wins state describing the artifact — and
//! bumps `cache.build.hit` / `cache.eval.hit`. Spans and counters are
//! deliberately not replayed: they count work actually done, and the
//! whole point of a hit is that no work was done.
//!
//! Scope is per-driver (one cache per facade instance or sweep), not
//! process-global: tests and concurrent drivers never see each other's
//! counters. The
//! `AUGEM_EVAL_CACHE=0` (or `off`) environment knob disables caching
//! for A/B measurement.

use crate::config::{BuildError, Candidate, LoggedBuild};
use crate::evaluate::{Evaluation, ProfiledEvaluation};
use augem_machine::MachineSpec;
use augem_obs::{Collector, Tee, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counter names the cache emits on the live tracer.
pub mod counter {
    /// A logged build was served from the cache.
    pub const BUILD_HIT: &str = "cache.build.hit";
    /// A logged build ran the pipeline and was stored.
    pub const BUILD_MISS: &str = "cache.build.miss";
    /// An evaluation was served from the cache.
    pub const EVAL_HIT: &str = "cache.eval.hit";
    /// An evaluation ran the simulator and was stored.
    pub const EVAL_MISS: &str = "cache.eval.miss";
    /// A profiled evaluation was served from the cache.
    pub const PROFILE_HIT: &str = "cache.profile.hit";
    /// A profiled evaluation ran the simulator and was stored.
    pub const PROFILE_MISS: &str = "cache.profile.miss";
    /// One-time event: caching is off via `AUGEM_EVAL_CACHE`.
    pub const DISABLED_EVENT: &str = "cache.disabled";
}

/// Does this `AUGEM_EVAL_CACHE` value disable the cache? Accepts
/// `0`/`off`/`false`/`no` case-insensitively; anything else (including
/// unset) leaves caching on. The single point of truth for the knob —
/// every constructor routes through [`cache_enabled`].
fn knob_disables(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "0" | "off" | "false" | "no"
    )
}

/// Reads the `AUGEM_EVAL_CACHE` environment knob. `0`, `off`, `false`,
/// and `no` (any case) disable caching; anything else, or unset, enables
/// it.
pub fn cache_enabled() -> bool {
    !std::env::var("AUGEM_EVAL_CACHE")
        .map(|v| knob_disables(&v))
        .unwrap_or(false)
}

/// Emits the one-time `cache.disabled` event on `tracer`. Guarded by a
/// process-wide [`std::sync::Once`] so a long-lived daemon constructing
/// many drivers logs the A/B-measurement mode exactly once, not per
/// request.
pub fn note_cache_disabled(tracer: &dyn Tracer) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let knob = std::env::var("AUGEM_EVAL_CACHE").unwrap_or_default();
        tracer.event(counter::DISABLED_EVENT, &[("knob", knob.into())]);
    });
}

type BuildKey = (String, u64);
type EvalKey = (String, u64, Option<u64>);

#[derive(Debug)]
struct CachedBuild {
    build: Arc<LoggedBuild>,
    /// Last-write-wins labels the build emitted, replayed on every hit
    /// so e.g. `opt.simd_strategy` always describes the *last* artifact
    /// the caller touched, exactly as if it had been rebuilt.
    labels: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    builds: HashMap<BuildKey, CachedBuild>,
    evals: HashMap<EvalKey, Evaluation>,
    profiles: HashMap<EvalKey, Arc<ProfiledEvaluation>>,
}

/// Memoizes pipeline builds and simulator evaluations. Thread-safe:
/// the parallel sweep's workers share one cache. Only successes are
/// stored — failures are either deterministic prunes (cheap to rediscover
/// and carried in the sweep result anyway) or transient panics that the
/// retry machinery owns.
#[derive(Debug)]
pub struct EvalCache {
    enabled: bool,
    inner: Mutex<Inner>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// A cache honoring the `AUGEM_EVAL_CACHE` environment knob
    /// (`0`/`off`/`false`/`no`, case-insensitive, disable it; anything
    /// else, or unset, enables). See [`cache_enabled`].
    pub fn new() -> Self {
        EvalCache {
            enabled: cache_enabled(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// [`new`](Self::new), emitting a one-time `cache.disabled` event on
    /// `tracer` when the environment knob turned caching off — so a
    /// daemon serving from this cache records the degraded-throughput
    /// mode in its run reports.
    pub fn new_traced(tracer: &dyn Tracer) -> Self {
        let cache = Self::new();
        if !cache.enabled {
            note_cache_disabled(tracer);
        }
        cache
    }

    /// A cache that never hits and never stores — the legacy behavior.
    pub fn disabled() -> Self {
        EvalCache {
            enabled: false,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The logged build for a candidate, built at most once per
    /// `(tag, machine)` across the driver's lifetime.
    pub fn logged<C: Candidate + ?Sized>(
        &self,
        c: &C,
        machine: &MachineSpec,
        tracer: &dyn Tracer,
    ) -> Result<Arc<LoggedBuild>, BuildError> {
        if !self.enabled {
            return c.build_logged_traced(machine, tracer).map(Arc::new);
        }
        let key = (c.tag(), machine.fingerprint());
        if let Some(hit) = self.lock().builds.get(&key) {
            tracer.add(counter::BUILD_HIT, 1);
            for (k, v) in &hit.labels {
                tracer.label(k, v);
            }
            return Ok(hit.build.clone());
        }
        tracer.add(counter::BUILD_MISS, 1);
        // Build outside the lock: workers of the parallel sweep must not
        // serialize on each other's pipelines. Two racing misses on the
        // same key both build (deterministically, the same artifact);
        // the first insert wins.
        let local = Collector::new();
        let tee = Tee::new(tracer, &local);
        let built = Arc::new(c.build_logged_traced(machine, &tee)?);
        let labels = local.snapshot().labels.into_iter().collect();
        self.lock().builds.entry(key).or_insert(CachedBuild {
            build: built.clone(),
            labels,
        });
        Ok(built)
    }

    /// A cached evaluation, if one exists. Bumps the hit/miss counter
    /// and, on a hit, replays the corresponding build's labels.
    pub(crate) fn eval_lookup(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        tracer: &dyn Tracer,
    ) -> Option<Evaluation> {
        let key = (tag.to_string(), machine.fingerprint(), step_limit);
        let counters = (counter::EVAL_HIT, counter::EVAL_MISS);
        self.lookup(|inner| &inner.evals, key, counters, tracer)
    }

    /// Stores a completed evaluation under its content key.
    pub(crate) fn eval_store(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        eval: &Evaluation,
    ) {
        let key = (tag.to_string(), machine.fingerprint(), step_limit);
        self.store(|inner| &mut inner.evals, key, eval);
    }

    /// A cached profiled evaluation, if one exists (see
    /// [`eval_lookup`](Self::eval_lookup) — same key, same label-replay
    /// semantics, separate `cache.profile.*` counters).
    pub(crate) fn profile_lookup(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        tracer: &dyn Tracer,
    ) -> Option<Arc<ProfiledEvaluation>> {
        let key = (tag.to_string(), machine.fingerprint(), step_limit);
        let counters = (counter::PROFILE_HIT, counter::PROFILE_MISS);
        self.lookup(|inner| &inner.profiles, key, counters, tracer)
    }

    /// Stores a completed profiled evaluation under its content key.
    pub(crate) fn profile_store(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        profile: &Arc<ProfiledEvaluation>,
    ) {
        let key = (tag.to_string(), machine.fingerprint(), step_limit);
        self.store(|inner| &mut inner.profiles, key, profile);
    }

    /// The measurement lookup behind both maps: bumps the `(hit, miss)`
    /// counter and, on a hit, replays the build's labels.
    fn lookup<T: Clone>(
        &self,
        map: impl Fn(&Inner) -> &HashMap<EvalKey, T>,
        key: EvalKey,
        (hit_counter, miss_counter): (&str, &str),
        tracer: &dyn Tracer,
    ) -> Option<T> {
        if !self.enabled {
            return None;
        }
        let inner = self.lock();
        let Some(hit) = map(&inner).get(&key).cloned() else {
            drop(inner);
            tracer.add(miss_counter, 1);
            return None;
        };
        let (tag, fp, _) = key;
        let labels = inner
            .builds
            .get(&(tag, fp))
            .map(|b| b.labels.clone())
            .unwrap_or_default();
        drop(inner);
        tracer.add(hit_counter, 1);
        for (k, v) in &labels {
            tracer.label(k, v);
        }
        Some(hit)
    }

    /// The measurement store behind both maps; the first insert wins.
    fn store<T: Clone>(
        &self,
        map: impl FnOnce(&mut Inner) -> &mut HashMap<EvalKey, T>,
        key: EvalKey,
        value: &T,
    ) {
        if self.enabled {
            map(&mut self.lock())
                .entry(key)
                .or_insert_with(|| value.clone());
        }
    }

    /// How many distinct builds the cache holds (test/report helper).
    pub fn builds_len(&self) -> usize {
        self.lock().builds.len()
    }

    /// How many distinct evaluations the cache holds.
    pub fn evals_len(&self) -> usize {
        self.lock().evals.len()
    }

    /// How many distinct profiled evaluations the cache holds.
    pub fn profiles_len(&self) -> usize {
        self.lock().profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GemmConfig;

    #[test]
    fn second_build_is_a_hit_with_identical_asm_and_labels() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let first = cache.logged(&cfg, &m, &c).unwrap();
        let again = cache.logged(&cfg, &m, &c).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hit must share the artifact");
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::BUILD_MISS], 1);
        assert_eq!(snap.counters[counter::BUILD_HIT], 1);
        // The pipeline ran once: one akg span, not two.
        let akg = snap
            .stages()
            .into_iter()
            .find(|s| s.name == augem_obs::stage::AKG)
            .expect("akg stage present");
        assert_eq!(akg.calls, 1);
        // The hit re-asserted the strategy label.
        assert!(snap.labels.contains_key("opt.simd_strategy"));
    }

    #[test]
    fn machine_fingerprint_separates_entries() {
        let snb = MachineSpec::sandy_bridge();
        let sse = snb.with_isa_clamped(augem_machine::SimdMode::Sse);
        let cfg = GemmConfig {
            mu: 4,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let wide = cache.logged(&cfg, &snb, &c).unwrap();
        let narrow = cache.logged(&cfg, &sse, &c).unwrap();
        assert!(!Arc::ptr_eq(&wide, &narrow));
        assert_eq!(c.snapshot().counters[counter::BUILD_MISS], 2);
        assert_eq!(cache.builds_len(), 2);
    }

    #[test]
    fn cached_eval_is_bit_identical_and_skips_the_simulator() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let cold = cache.evaluate(&cfg, &m, &c, None).unwrap();
        let sim_cycles_after_miss = c.snapshot().counters["sim.cycles"];
        let warm = cache.evaluate(&cfg, &m, &c, None).unwrap();
        assert_eq!(cold.mflops.to_bits(), warm.mflops.to_bits());
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::EVAL_MISS], 1);
        assert_eq!(snap.counters[counter::EVAL_HIT], 1);
        // The hit did not re-simulate: sim counters unchanged.
        assert_eq!(snap.counters["sim.cycles"], sim_cycles_after_miss);
        // A different budget is a different measurement key.
        let budgeted = cache.evaluate(&cfg, &m, &c, Some(1 << 32)).unwrap();
        assert_eq!(budgeted.mflops.to_bits(), cold.mflops.to_bits());
        assert_eq!(c.snapshot().counters[counter::EVAL_MISS], 2);
    }

    #[test]
    fn cached_profile_is_shared_and_conserves_cycles() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let cold = cache.profile(&cfg, &m, &c, None).unwrap();
        let warm = cache.profile(&cfg, &m, &c, None).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "hit must share the profile");
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::PROFILE_MISS], 1);
        assert_eq!(snap.counters[counter::PROFILE_HIT], 1);
        assert_eq!(cache.profiles_len(), 1);
        // The profiled replay measures the same thing the plain one does,
        // and its per-pc attribution telescopes to the total.
        let plain = cache.evaluate(&cfg, &m, &c, None).unwrap();
        assert_eq!(plain.report, cold.report);
        assert_eq!(plain.mflops.to_bits(), cold.mflops.to_bits());
        assert_eq!(cold.pcs.total_cycles(), cold.report.cycles);
        assert_eq!(cold.pcs.port_totals(), cold.report.port_uops);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::disabled();
        let c = Collector::new();
        cache.logged(&cfg, &m, &c).unwrap();
        cache.logged(&cfg, &m, &c).unwrap();
        let snap = c.snapshot();
        assert!(!snap.counters.contains_key(counter::BUILD_HIT));
        assert!(!snap.counters.contains_key(counter::BUILD_MISS));
        assert_eq!(cache.builds_len(), 0);
    }

    #[test]
    fn knob_values_disable_case_insensitively() {
        for v in [
            "0", "off", "OFF", "Off", "false", "FALSE", "no", "No", " no ",
        ] {
            assert!(knob_disables(v), "{v:?} must disable the cache");
        }
        for v in ["", "1", "on", "true", "yes", "anything"] {
            assert!(!knob_disables(v), "{v:?} must leave the cache enabled");
        }
    }

    #[test]
    fn disabled_event_fires_exactly_once_per_process() {
        // AUGEM_EVAL_CACHE is not set under `cargo test`, so nothing
        // else triggers the Once — this test owns it.
        let c = Collector::new();
        note_cache_disabled(&c);
        note_cache_disabled(&c);
        let events = c
            .snapshot()
            .events
            .iter()
            .filter(|e| e.name == counter::DISABLED_EVENT)
            .count();
        assert_eq!(events, 1, "cache.disabled must be a one-time event");
    }
}
