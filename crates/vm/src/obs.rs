//! JIT observability: always-on engine-wide counters plus an optional
//! event hook.
//!
//! The engine ([`crate::engine`]) reports what one *run* did through
//! [`crate::RunReport`]; this module aggregates the same decisions
//! **process-wide** so a serving layer can expose them as metrics, and
//! lets exactly one consumer install a global [`JitEvent`] hook for
//! per-query attribution (the tracing subsystem in `adaptvm_parallel`
//! installs one that routes events into the current query's trace).
//!
//! Counter updates are single relaxed `fetch_add`s; the hook check is one
//! `OnceLock::get` (an acquire load). Both are cheap enough to stay on
//! unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One JIT lifecycle event, as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitEvent {
    /// A fragment was injected straight from a shared code cache.
    CacheHit,
    /// A fragment was compiled synchronously (modeled cost attached).
    Compile {
        /// Modeled compile cost, nanoseconds.
        cost_ns: u64,
    },
    /// A fragment failed to build/compile/run and execution fell back to
    /// the interpreter (the adaptive strategy's deopt path).
    Deopt,
}

/// A snapshot of the process-wide JIT counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitCounters {
    /// Fragments compiled.
    pub compiles: u64,
    /// Fragments injected from a shared cache without compiling.
    pub cache_hits: u64,
    /// Build/compile/run failures that fell back to interpretation.
    pub deopts: u64,
    /// Always 0. Frozen compatibility fields: the `benchmark/` crate still
    /// reads them; nothing in the engine increments them.
    #[doc(hidden)]
    pub async_submits: u64,
    #[doc(hidden)]
    pub native_installs: u64,
    #[doc(hidden)]
    pub native_deopts: u64,
}

static COMPILES: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static DEOPTS: AtomicU64 = AtomicU64::new(0);

type JitHook = Box<dyn Fn(JitEvent) + Send + Sync>;

static HOOK: OnceLock<JitHook> = OnceLock::new();

/// Install the process-wide JIT event hook. The first installation wins;
/// returns `false` (and drops `hook`) if one is already installed.
pub fn install_jit_hook(hook: JitHook) -> bool {
    HOOK.set(hook).is_ok()
}

/// The process-wide JIT counter totals (monotonic since process start).
pub fn jit_counters() -> JitCounters {
    JitCounters {
        compiles: COMPILES.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        deopts: DEOPTS.load(Ordering::Relaxed),
        async_submits: 0,
        native_installs: 0,
        native_deopts: 0,
    }
}

/// Count the event and forward it to the installed hook, if any.
pub(crate) fn jit_event(ev: JitEvent) {
    match ev {
        JitEvent::CacheHit => CACHE_HITS.fetch_add(1, Ordering::Relaxed),
        JitEvent::Compile { .. } => COMPILES.fetch_add(1, Ordering::Relaxed),
        JitEvent::Deopt => DEOPTS.fetch_add(1, Ordering::Relaxed),
    };
    if let Some(hook) = HOOK.get() {
        hook(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_events() {
        let before = jit_counters();
        jit_event(JitEvent::CacheHit);
        jit_event(JitEvent::Compile { cost_ns: 10 });
        jit_event(JitEvent::Deopt);
        let after = jit_counters();
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.compiles - before.compiles, 1);
        assert_eq!(after.async_submits, 0);
        assert_eq!(after.deopts - before.deopts, 1);
    }
}
