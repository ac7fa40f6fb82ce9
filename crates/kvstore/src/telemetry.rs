//! KV-operation telemetry: per-op counters and latency histograms for
//! the E2-backed stores. Instrumentation is unconditional — built
//! without the `telemetry` feature every handle is a no-op ZST.

use e2nvm_telemetry::{Counter, Gauge, Histogram, TelemetryRegistry};

/// `Instant::now()` only in telemetry builds: the explicit-timing
/// counterpart of `Histogram::start_timer` for paths where the drop
/// guard's borrow would conflict with later `&mut self` calls. With
/// the feature off every histogram is a no-op ZST, so this skips the
/// clock read entirely instead of timing into the void.
#[inline]
pub(crate) fn now_if_enabled() -> Option<std::time::Instant> {
    cfg!(feature = "telemetry").then(std::time::Instant::now)
}

/// Latency bucket bounds in nanoseconds for KV operations (put spans
/// padding + prediction + device write; scans can touch many segments).
const OP_LATENCY_BOUNDS: [u64; 8] = [
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    2_000_000,
    10_000_000,
    100_000_000,
];

/// Telemetry sink for one KV store: operation counters plus a latency
/// histogram per operation kind, all under the `e2nvm_kv_*` namespace.
#[derive(Clone, Debug)]
pub struct StoreTelemetry {
    registry: Option<TelemetryRegistry>,
    pub(crate) puts: Counter,
    pub(crate) gets: Counter,
    pub(crate) deletes: Counter,
    pub(crate) scans: Counter,
    pub(crate) put_latency_ns: Histogram,
    pub(crate) get_latency_ns: Histogram,
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl StoreTelemetry {
    /// A sink wired to nothing: counters count into thin air (or are
    /// no-ops entirely with the feature off).
    pub fn disconnected() -> Self {
        Self {
            registry: None,
            puts: Counter::disconnected(),
            gets: Counter::disconnected(),
            deletes: Counter::disconnected(),
            scans: Counter::disconnected(),
            put_latency_ns: Histogram::disconnected(&OP_LATENCY_BOUNDS),
            get_latency_ns: Histogram::disconnected(&OP_LATENCY_BOUNDS),
        }
    }

    /// Register this store's series on `registry` under the given store
    /// label (e.g. `"sharded"`).
    pub fn register(registry: &TelemetryRegistry, store: &str) -> Self {
        let labels = [("store", store)];
        Self {
            registry: Some(registry.clone()),
            puts: registry.counter_with_labels(
                "e2nvm_kv_puts_total",
                "KV put/update operations",
                &labels,
            ),
            gets: registry.counter_with_labels("e2nvm_kv_gets_total", "KV get operations", &labels),
            deletes: registry.counter_with_labels(
                "e2nvm_kv_deletes_total",
                "KV delete operations",
                &labels,
            ),
            scans: registry.counter_with_labels(
                "e2nvm_kv_scans_total",
                "KV range-scan operations",
                &labels,
            ),
            put_latency_ns: registry.histogram_with_labels(
                "e2nvm_kv_put_latency_ns",
                "KV put latency in nanoseconds",
                &OP_LATENCY_BOUNDS,
                &labels,
            ),
            get_latency_ns: registry.histogram_with_labels(
                "e2nvm_kv_get_latency_ns",
                "KV get latency in nanoseconds",
                &OP_LATENCY_BOUNDS,
                &labels,
            ),
        }
    }

    /// The registry this sink was registered on, if any.
    pub fn registry(&self) -> Option<&TelemetryRegistry> {
        self.registry.as_ref()
    }
}

/// Cache-lookup latency bucket bounds in nanoseconds. Hits are DRAM
/// map lookups (sub-microsecond); misses additionally pay the inner
/// store's read path, so the buckets span both regimes.
const CACHE_LATENCY_BOUNDS: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

/// Telemetry sink for a [`crate::HotCache`]: hit/miss/eviction
/// counters, occupancy gauges, and hit-vs-miss latency histograms, all
/// under the `e2nvm_cache_*` namespace. Built without the `telemetry`
/// feature every handle is a no-op ZST.
#[derive(Clone, Debug)]
pub struct CacheTelemetry {
    registry: Option<TelemetryRegistry>,
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) evictions: Counter,
    pub(crate) invalidations: Counter,
    pub(crate) fills_dropped: Counter,
    pub(crate) occupancy_bytes: Gauge,
    pub(crate) entries: Gauge,
    pub(crate) hit_latency_ns: Histogram,
    pub(crate) miss_latency_ns: Histogram,
}

impl Default for CacheTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl CacheTelemetry {
    /// A sink wired to nothing.
    pub fn disconnected() -> Self {
        Self {
            registry: None,
            hits: Counter::disconnected(),
            misses: Counter::disconnected(),
            evictions: Counter::disconnected(),
            invalidations: Counter::disconnected(),
            fills_dropped: Counter::disconnected(),
            occupancy_bytes: Gauge::disconnected(),
            entries: Gauge::disconnected(),
            hit_latency_ns: Histogram::disconnected(&CACHE_LATENCY_BOUNDS),
            miss_latency_ns: Histogram::disconnected(&CACHE_LATENCY_BOUNDS),
        }
    }

    /// Register the cache series on `registry`.
    pub fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            registry: Some(registry.clone()),
            hits: registry.counter("e2nvm_cache_hits_total", "Cache lookups served from DRAM"),
            misses: registry.counter(
                "e2nvm_cache_misses_total",
                "Cache lookups that fell through to the store",
            ),
            evictions: registry.counter(
                "e2nvm_cache_evictions_total",
                "Entries evicted by the CLOCK hand",
            ),
            invalidations: registry.counter(
                "e2nvm_cache_invalidations_total",
                "Coherence invalidations from puts/deletes",
            ),
            fills_dropped: registry.counter(
                "e2nvm_cache_fills_dropped_total",
                "Fills dropped because an invalidation raced the read",
            ),
            occupancy_bytes: registry.gauge(
                "e2nvm_cache_occupancy_bytes",
                "Bytes currently charged against the cache budget",
            ),
            entries: registry.gauge("e2nvm_cache_entries", "Entries currently resident"),
            hit_latency_ns: registry.histogram(
                "e2nvm_cache_hit_latency_ns",
                "GET latency when served from the cache",
                &CACHE_LATENCY_BOUNDS,
            ),
            miss_latency_ns: registry.histogram(
                "e2nvm_cache_miss_latency_ns",
                "GET latency when falling through to the store",
                &CACHE_LATENCY_BOUNDS,
            ),
        }
    }

    /// The registry this sink was registered on, if any.
    pub fn registry(&self) -> Option<&TelemetryRegistry> {
        self.registry.as_ref()
    }
}
