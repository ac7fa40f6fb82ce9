//! Request execution shared by the reactor's worker pool and the
//! thread-per-connection baseline.
//!
//! Both serving models funnel through the same two steps so their
//! observable behavior is identical byte for byte:
//!
//! 1. [`collect_work`] — drain every complete frame out of a
//!    [`FrameDecoder`] into an ordered list of [`Work`] items
//!    (well-formed requests and protocol violations alike — a
//!    violation is an item so its error frame stays in request order).
//! 2. [`ExecCtx::exec_batch`] — execute the items against the store in
//!    order, appending one response frame per item to an output
//!    buffer, with the same PUT-coalescing, GET fast path, typed error
//!    mapping, and telemetry the threaded server always had.
//!
//! The only thing the serving models differ in is *where* these run:
//! the threaded server runs both on the connection's own thread; the
//! reactor runs step 1 on the event loop and ships the items to a
//! worker.

use crate::frame::{
    encode_response, encode_scan_chunk, encode_value_frame, parse_request, FrameDecoder,
    FrameError, Opcode, Request, Response, Status,
};
use crate::telemetry::ServerTelemetry;
use e2nvm_core::E2Error;
use e2nvm_kvstore::{CachedKvStore, NvmKvStore, ShardedE2KvStore, StoreError};
use e2nvm_telemetry::TelemetryRegistry;
use std::ops::ControlFlow;

/// What the connection handlers serve from: the bare sharded store, or
/// the same store behind a read-through cache. Clones share both the
/// store shards and the cache shards, so coherence is cross-connection
/// (and, under the reactor, cross-worker).
#[derive(Clone)]
pub(crate) enum Front {
    Plain(ShardedE2KvStore),
    Cached(CachedKvStore<ShardedE2KvStore>),
}

impl Front {
    /// The store as a trait object — every request dispatches through
    /// the same [`NvmKvStore`] surface regardless of caching.
    fn kv(&mut self) -> &mut dyn NvmKvStore {
        match self {
            Front::Plain(store) => store,
            Front::Cached(cached) => cached,
        }
    }

    /// Live key count (inherent on the concrete store, not the trait).
    fn len(&self) -> usize {
        match self {
            Front::Plain(store) => store.len(),
            Front::Cached(cached) => cached.inner().len(),
        }
    }

    /// Retired segment count across shards.
    fn retired_count(&self) -> usize {
        match self {
            Front::Plain(store) => store.retired_count(),
            Front::Cached(cached) => cached.inner().retired_count(),
        }
    }

    /// Simulated-device counters (the cache forwards to its inner
    /// store; DRAM hits never touch the device).
    fn stats(&self) -> e2nvm_sim::DeviceStats {
        match self {
            Front::Plain(store) => store.stats(),
            Front::Cached(cached) => cached.stats(),
        }
    }

    /// Fixed-size wear summary for the HEALTH frame (inherent on the
    /// concrete store; DRAM cache state is irrelevant to device wear).
    fn wear_summary(&self) -> e2nvm_kvstore::WearSummary {
        match self {
            Front::Plain(store) => store.wear_summary(),
            Front::Cached(cached) => cached.inner().wear_summary(),
        }
    }
}

/// One unit of ordered per-connection work: a parsed request, or a
/// protocol violation whose error frame must be emitted at exactly
/// this position in the response stream.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// A well-formed request.
    Req(Request),
    /// A violation. [`FrameError::is_fatal`] decides whether the
    /// connection closes after the error frame is flushed.
    Bad(FrameError),
}

/// How [`collect_work`] left the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollectEnd {
    /// All buffered complete frames were consumed; feed more bytes.
    NeedMore,
    /// A framing-level violation poisoned the stream: the final item
    /// is its [`Work::Bad`], and the caller must read no further.
    Fatal,
}

/// Drain every complete frame out of `decoder` into `out` (appending),
/// stopping early only on a fatal framing violation. Violations are
/// appended as [`Work::Bad`] items so their error frames keep request
/// order when the batch executes.
pub(crate) fn collect_work(decoder: &mut FrameDecoder, out: &mut Vec<Work>) -> CollectEnd {
    loop {
        match decoder.next_frame() {
            Ok(None) => return CollectEnd::NeedMore,
            Ok(Some(raw)) => match parse_request(&raw) {
                Ok(req) => out.push(Work::Req(req)),
                Err(e) => {
                    let fatal = e.is_fatal();
                    out.push(Work::Bad(e));
                    if fatal {
                        return CollectEnd::Fatal;
                    }
                }
            },
            Err(e) => {
                // Framing-level violation: the byte stream can no
                // longer be trusted. Answer (in order), then close.
                out.push(Work::Bad(e));
                return CollectEnd::Fatal;
            }
        }
    }
}

/// What executing a batch decided about the connection's future.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchOutcome {
    /// Close the connection once the batch's responses are flushed
    /// (fatal violation answered, or SHUTDOWN acknowledged).
    pub close: bool,
    /// A SHUTDOWN frame was served: the whole server must drain.
    pub shutdown: bool,
}

/// Entries fetched from the store per paging step while producing a
/// scan response. Bounds store-side materialisation per call: the
/// server never asks the store for more than one page at a time, no
/// matter how large the range (the stores' `scan_limit` overrides stop
/// early at the page bound).
const SCAN_PAGE: usize = 256;

/// A hook the serving engine may hand [`ExecCtx::exec_batch_flushing`]
/// to push `outbuf` to the socket (and clear it) between streamed scan
/// chunks, bounding peak response memory. Only invoked at points where
/// every byte in `outbuf` is ack-safe (a commit barrier ran after the
/// last mutation it acknowledges). An `Err` means the connection is
/// dead and the batch should stop.
pub(crate) type FlushHook<'a> = &'a mut dyn FnMut(&mut Vec<u8>) -> std::io::Result<()>;

/// Everything needed to execute requests against the store: a [`Front`]
/// clone (shards shared), the registry for METRICS frames, the
/// telemetry sink, and the coalescing/bounding knobs. One per
/// connection thread (threaded server) or one per worker (reactor).
pub(crate) struct ExecCtx {
    pub store: Front,
    pub registry: Option<TelemetryRegistry>,
    pub telemetry: ServerTelemetry,
    pub coalesce_puts: bool,
    /// The server's `body_len` cap: a legacy single-frame SCAN whose
    /// encoded body would exceed it is answered with
    /// [`Status::ScanTooLarge`] instead of a frame the peer's decoder
    /// would reject as fatal.
    pub max_frame_body: usize,
    /// Target payload bytes per SCAN_STREAM chunk. Entries are never
    /// split, so a chunk holding one oversized entry may exceed this.
    pub scan_chunk_bytes: usize,
}

impl ExecCtx {
    /// Execute `items` in order, appending one response frame per item
    /// to `outbuf`. Items after a SHUTDOWN or a fatal violation are
    /// dropped unanswered (the connection is closing; the peer's
    /// pipeline is void past that point — same contract the threaded
    /// server always had).
    ///
    /// With [`coalesce_puts`](Self::coalesce_puts) set, runs of
    /// consecutive PUT items are buffered and served by one `put_many`
    /// call; the run flushes before any other item kind (and at the
    /// end of the batch), so responses still come back in request
    /// order.
    pub fn exec_batch(
        &mut self,
        items: impl IntoIterator<Item = Work>,
        outbuf: &mut Vec<u8>,
    ) -> BatchOutcome {
        self.exec_batch_flushing(items, outbuf, None)
    }

    /// [`ExecCtx::exec_batch`] with an optional mid-stream flush hook.
    /// The threaded engine passes a hook that writes `outbuf` to the
    /// socket and clears it between streamed scan chunks, so a scan of
    /// any size is served in bounded memory; the reactor passes `None`
    /// (its responses travel through completion buffers) and relies on
    /// its write-backlog backpressure instead.
    pub fn exec_batch_flushing(
        &mut self,
        items: impl IntoIterator<Item = Work>,
        outbuf: &mut Vec<u8>,
        mut flush: Option<FlushHook<'_>>,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        let outbuf_start = outbuf.len();
        // Responses at or past this index acknowledge work not yet
        // covered by a commit barrier; a failed commit drops exactly
        // them. Streamed scans move it forward (they run their own
        // barrier first, and the flush hook may then empty `outbuf`).
        let mut barrier = outbuf_start;
        let mut pending_puts: Vec<(u64, Vec<u8>)> = Vec::new();
        for item in items {
            match item {
                Work::Req(req) => {
                    // Timed explicitly (not via the histogram's drop
                    // guard, which would hold a borrow of the telemetry
                    // struct across the `&mut self` dispatch), and only
                    // when the observation can go somewhere.
                    let t0 = crate::telemetry::now_if_enabled();
                    let op = req.opcode();
                    self.telemetry.count_frame(op);
                    let req = if self.coalesce_puts {
                        match req {
                            Request::Put { key, value } => {
                                // Answered when the run flushes; its
                                // latency is folded into the flush
                                // observation.
                                pending_puts.push((key, value));
                                continue;
                            }
                            other => {
                                self.flush_puts(&mut pending_puts, outbuf);
                                other
                            }
                        }
                    } else {
                        req
                    };
                    match req {
                        // GETs are the hot path: serve them straight
                        // into the output buffer (a cache hit encodes
                        // from the cached bytes, no intermediate Vec).
                        Request::Get { key } => self.serve_get(key, outbuf),
                        Request::Shutdown => {
                            encode_response(&Response::ShutdownAck, Some(op), outbuf);
                            outcome.shutdown = true;
                            outcome.close = true;
                        }
                        Request::ScanStream { lo, hi, limit } => {
                            // Commit barrier *before* streaming: it
                            // makes every response already in `outbuf`
                            // (including the coalesced PUT run flushed
                            // just above) ack-safe, so the flush hook
                            // may push bytes to the socket between
                            // chunks without risking an acked-but-
                            // uncommitted write escaping.
                            if let Err(e) = self.store.kv().commit() {
                                outbuf.truncate(barrier);
                                let resp = store_error_frame(&e);
                                if let Response::Error { status, .. } = &resp {
                                    self.telemetry.count_error(*status);
                                }
                                encode_response(&resp, None, outbuf);
                                outcome.close = true;
                            } else if self
                                .serve_scan_stream(lo, hi, limit, outbuf, &mut flush)
                                .is_err()
                            {
                                // The socket died mid-stream; nothing
                                // left to answer, just close.
                                outcome.close = true;
                            } else {
                                // Everything emitted so far is either
                                // committed or read-only.
                                barrier = outbuf.len();
                            }
                        }
                        req => {
                            let resp = self.handle(req);
                            if let Response::Error { status, .. } = &resp {
                                self.telemetry.count_error(*status);
                            }
                            encode_response(&resp, Some(op), outbuf);
                        }
                    }
                    if let Some(t0) = t0 {
                        self.telemetry
                            .frame_latency_ns
                            .observe(t0.elapsed().as_nanos() as u64);
                    }
                    if outcome.close {
                        break;
                    }
                }
                Work::Bad(e) => {
                    // Flush first so the error frame stays in request
                    // order; answer with a typed error frame (never
                    // panic, never drop silently).
                    self.flush_puts(&mut pending_puts, outbuf);
                    self.telemetry.count_error(e.status());
                    encode_response(&error_frame(&e), None, outbuf);
                    if e.is_fatal() {
                        outcome.close = true;
                        break;
                    }
                }
            }
        }
        self.flush_puts(&mut pending_puts, outbuf);
        // Group-commit barrier: hand the batch's WAL records to the
        // kernel *before* the caller flushes the batch's responses to
        // the socket. That ordering — not per-mutation syscalls — is
        // what makes every acked write survive a process kill, and it
        // is why the batch is the WAL's write(2) granularity.
        if let Err(e) = self.store.kv().commit() {
            // Applied in memory but not durably logged: acking would
            // break the no-acked-loss contract. Drop the responses not
            // yet covered by a barrier, answer with one typed error,
            // and close — the client treats the dead connection as
            // unacknowledged.
            outbuf.truncate(barrier);
            let resp = store_error_frame(&e);
            if let Response::Error { status, .. } = &resp {
                self.telemetry.count_error(*status);
            }
            encode_response(&resp, None, outbuf);
            outcome.close = true;
        }
        outcome
    }

    /// Serve a buffered run of PUTs through one `put_many`, appending
    /// one Stored/error response per PUT in request order. No-op when
    /// the run is empty (which is always the case without coalescing).
    fn flush_puts(&mut self, pending: &mut Vec<(u64, Vec<u8>)>, outbuf: &mut Vec<u8>) {
        if pending.is_empty() {
            return;
        }
        let t0 = crate::telemetry::now_if_enabled();
        let pairs: Vec<(u64, &[u8])> = pending.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let results = self.store.kv().put_many(&pairs);
        for result in results {
            let resp = match result {
                Ok(()) => Response::Stored,
                Err(e) => store_error_frame(&e),
            };
            if let Response::Error { status, .. } = &resp {
                self.telemetry.count_error(*status);
            }
            encode_response(&resp, Some(Opcode::Put), outbuf);
        }
        // One observation for the whole run: the run was served as one
        // store operation, and that is the latency that existed.
        if let Some(t0) = t0 {
            self.telemetry
                .frame_latency_ns
                .observe(t0.elapsed().as_nanos() as u64);
        }
        pending.clear();
    }

    /// Serve one GET, appending its response frame to `outbuf`. Split
    /// from [`ExecCtx::handle`] so the cache-hit path can encode
    /// straight from the cached bytes under the shard lock instead of
    /// materialising a `Response::Value` allocation per read.
    fn serve_get(&mut self, key: u64, outbuf: &mut Vec<u8>) {
        let echo = Some(Opcode::Get);
        let error = match &mut self.store {
            Front::Cached(cached) => {
                match cached.get_with(key, |value| encode_value_frame(value, echo, outbuf)) {
                    Ok(Some(())) => None,
                    Ok(None) => {
                        encode_response(&Response::NotFound, echo, outbuf);
                        None
                    }
                    Err(e) => Some(store_error_frame(&e)),
                }
            }
            Front::Plain(store) => match store.get(key) {
                Ok(Some(v)) => {
                    encode_value_frame(&v, echo, outbuf);
                    None
                }
                Ok(None) => {
                    encode_response(&Response::NotFound, echo, outbuf);
                    None
                }
                Err(e) => Some(store_error_frame(&e)),
            },
        };
        if let Some(resp) = error {
            if let Response::Error { status, .. } = &resp {
                self.telemetry.count_error(*status);
            }
            encode_response(&resp, echo, outbuf);
        }
    }

    /// Produce the chunked response stream for one SCAN_STREAM
    /// request, appending chunk frames to `outbuf` and invoking the
    /// flush hook (when present) after every non-terminal chunk.
    ///
    /// The result is paged out of the store by [`page_scan`] and
    /// re-split at the configured chunk byte bound, so peak memory is
    /// one page plus one chunk regardless of range size (when the hook
    /// flushes; without a hook, `outbuf` accumulates the chunks under
    /// the caller's backpressure). A store error mid-stream terminates
    /// the stream with an error frame echoing SCAN_STREAM — frame-level,
    /// the connection survives. An `Err` return means the flush hook
    /// reported a dead socket.
    fn serve_scan_stream(
        &mut self,
        lo: u64,
        hi: u64,
        limit: u32,
        outbuf: &mut Vec<u8>,
        flush: &mut Option<FlushHook<'_>>,
    ) -> std::io::Result<()> {
        let chunk_cap = self.scan_chunk_bytes;
        let telemetry = &self.telemetry;
        let mut chunk: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut chunk_bytes = 0usize;
        let mut chunks_emitted = 0u64;
        let paged = page_scan(self.store.kv(), lo, hi, limit, |k, v| {
            let entry_bytes = 12 + v.len();
            if !chunk.is_empty() && chunk_bytes + entry_bytes > chunk_cap {
                // At least one more entry (this one) follows.
                encode_scan_chunk(true, &chunk, outbuf);
                chunks_emitted += 1;
                note_chunk(telemetry, chunks_emitted);
                chunk.clear();
                chunk_bytes = 0;
                if let Some(f) = flush.as_mut() {
                    if let Err(e) = f(outbuf) {
                        return ControlFlow::Break(e);
                    }
                }
            }
            chunk_bytes += entry_bytes;
            chunk.push((k, v));
            ControlFlow::Continue(())
        });
        match paged {
            Ok(ControlFlow::Continue(())) => {}
            Ok(ControlFlow::Break(e)) => return Err(e),
            Err(e) => {
                // Mid-stream store error: terminal for the stream,
                // survivable for the connection. Entries already
                // emitted stand; the peer sees the typed error in
                // place of the final chunk.
                let resp = store_error_frame(&e);
                if let Response::Error { status, .. } = &resp {
                    self.telemetry.count_error(*status);
                }
                encode_response(&resp, Some(Opcode::ScanStream), outbuf);
                return Ok(());
            }
        }
        // Terminal chunk: whatever is left (possibly nothing — an
        // empty range is one empty final chunk).
        encode_scan_chunk(false, &chunk, outbuf);
        chunks_emitted += 1;
        note_chunk(&self.telemetry, chunks_emitted);
        Ok(())
    }

    /// Serve a legacy single-frame SCAN, paging the store like the
    /// streaming path so an over-sized result is detected after at
    /// most one frame's worth of entries plus one page — never by
    /// materialising the whole range. A result whose encoded body
    /// would exceed the frame cap answers [`Status::ScanTooLarge`]
    /// (emitting the over-cap frame would poison the peer's decoder).
    fn bounded_scan(&mut self, lo: u64, hi: u64, limit: u32) -> Response {
        let cap = self.max_frame_body;
        let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut body_bytes = 4usize;
        let paged = page_scan(self.store.kv(), lo, hi, limit, |k, v| {
            body_bytes += 12 + v.len();
            if body_bytes > cap {
                return ControlFlow::Break(());
            }
            entries.push((k, v));
            ControlFlow::Continue(())
        });
        match paged {
            Ok(ControlFlow::Continue(())) => Response::Entries(entries),
            Ok(ControlFlow::Break(())) => Response::Error {
                status: Status::ScanTooLarge,
                retired: 0,
                message: format!(
                    "scan result exceeds the {cap}-byte frame cap after {} entries; \
                     use SCAN_STREAM (opcode 0x09) for unbounded ranges",
                    entries.len(),
                ),
            },
            Err(e) => store_error_frame(&e),
        }
    }

    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Get { key } => match self.store.kv().get(key) {
                Ok(Some(v)) => Response::Value(v),
                Ok(None) => Response::NotFound,
                Err(e) => store_error_frame(&e),
            },
            Request::Put { key, value } => match self.store.kv().put(key, &value) {
                Ok(()) => Response::Stored,
                Err(e) => store_error_frame(&e),
            },
            Request::Delete { key } => match self.store.kv().delete(key) {
                Ok(existed) => Response::Deleted(existed),
                Err(e) => store_error_frame(&e),
            },
            Request::Scan { lo, hi, limit } => self.bounded_scan(lo, hi, limit),
            // Streamed in exec_batch (needs the output buffer); only a
            // direct `handle` caller could reach this arm, and there
            // is none.
            Request::ScanStream { .. } => unreachable!("SCAN_STREAM is served by exec_batch"),
            Request::Stats => Response::Stats(self.stats_json()),
            // FLUSH dispatches through the NvmKvStore trait: the
            // persistence-backed store snapshots + fsyncs, stores
            // without persistence answer `Flushed(0)` (documented
            // no-op in `traits.rs`).
            Request::Flush => match self.store.kv().flush() {
                Ok(bytes) => Response::Flushed(bytes),
                Err(e) => store_error_frame(&e),
            },
            Request::Health => {
                let wear = self.store.wear_summary();
                self.telemetry.record_wear(&wear);
                Response::Health(wear)
            }
            Request::Metrics => {
                // Refresh the wear gauges so a text scrape carries the
                // same numbers a binary HEALTH probe would.
                self.telemetry.record_wear(&self.store.wear_summary());
                Response::Metrics(match &self.registry {
                    Some(reg) => reg.render_prometheus(),
                    None => "# no telemetry registry attached\n".to_string(),
                })
            }
            Request::Shutdown => Response::ShutdownAck,
        }
    }

    /// Self-contained JSON stats document (schema in `PROTOCOL.md`).
    fn stats_json(&self) -> String {
        let s = self.store.stats();
        format!(
            concat!(
                "{{\"keys\":{},\"retired_segments\":{},\"device\":{{",
                "\"writes\":{},\"reads\":{},\"lines_written\":{},\"lines_skipped\":{},",
                "\"bits_flipped\":{},\"bits_set\":{},\"bits_reset\":{},\"bits_programmed\":{},",
                "\"bits_requested\":{},\"energy_pj\":{},\"latency_ns\":{},\"swaps\":{}}}}}"
            ),
            self.store.len(),
            self.store.retired_count(),
            s.writes,
            s.reads,
            s.lines_written,
            s.lines_skipped,
            s.bits_flipped,
            s.bits_set,
            s.bits_reset,
            s.bits_programmed,
            s.bits_requested,
            s.energy_pj,
            s.latency_ns,
            s.swaps,
        )
    }
}

/// The scan loop behind both SCAN and SCAN_STREAM: page `lo..=hi`
/// out of `store` [`SCAN_PAGE`] entries at a time, handing each entry
/// to `each` in key order, until `limit` entries (0 = unlimited) have
/// gone out, the range is exhausted, or `each` breaks (its break value
/// is returned). A short page ends the walk: the sharded store's scan
/// is an exact prefix of the range, taken as one atomic cut.
fn page_scan<B>(
    store: &mut dyn NvmKvStore,
    lo: u64,
    hi: u64,
    limit: u32,
    mut each: impl FnMut(u64, Vec<u8>) -> ControlFlow<B>,
) -> Result<ControlFlow<B>, StoreError> {
    let mut remaining = if limit == 0 {
        u64::MAX
    } else {
        u64::from(limit)
    };
    let mut cursor = lo;
    while remaining > 0 && cursor <= hi {
        let want = remaining.min(SCAN_PAGE as u64) as usize;
        let page = store.scan_limit(cursor, hi, want)?;
        let got = page.len();
        let last_key = page.last().map(|&(k, _)| k);
        for (k, v) in page {
            if let ControlFlow::Break(b) = each(k, v) {
                return Ok(ControlFlow::Break(b));
            }
        }
        remaining -= got as u64;
        if got < want {
            break;
        }
        match last_key {
            Some(k) if k < hi => cursor = k + 1,
            _ => break,
        }
    }
    Ok(ControlFlow::Continue(()))
}

/// Telemetry for one emitted SCAN_STREAM chunk: count it, and count
/// the response as multi-chunk when its second chunk goes out.
fn note_chunk(telemetry: &ServerTelemetry, emitted_for_response: u64) {
    telemetry.scan_stream_chunks.inc();
    if emitted_for_response == 2 {
        telemetry.scan_stream_multi_chunk.inc();
    }
}

/// The error frame for a protocol violation.
pub(crate) fn error_frame(e: &FrameError) -> Response {
    Response::Error {
        status: e.status(),
        retired: 0,
        message: e.to_string(),
    }
}

/// Map a [`StoreError`] to its typed wire status — degraded mode and
/// pool depletion become first-class statuses the client can match on
/// instead of a dropped connection.
pub(crate) fn store_error_frame(e: &StoreError) -> Response {
    match e {
        StoreError::Degraded { retired } => Response::Error {
            status: Status::Degraded,
            retired: *retired as u64,
            message: e.to_string(),
        },
        StoreError::Engine(E2Error::PoolDepleted { retired }) => Response::Error {
            status: Status::PoolDepleted,
            retired: *retired as u64,
            message: e.to_string(),
        },
        StoreError::OutOfSpace | StoreError::Engine(E2Error::OutOfSpace) => Response::Error {
            status: Status::OutOfSpace,
            retired: 0,
            message: e.to_string(),
        },
        other => Response::Error {
            status: Status::StoreError,
            retired: 0,
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_map_to_typed_statuses() {
        let degraded = store_error_frame(&StoreError::Degraded { retired: 9 });
        assert!(matches!(
            degraded,
            Response::Error {
                status: Status::Degraded,
                retired: 9,
                ..
            }
        ));
        let depleted = store_error_frame(&StoreError::Engine(E2Error::PoolDepleted { retired: 3 }));
        assert!(matches!(
            depleted,
            Response::Error {
                status: Status::PoolDepleted,
                retired: 3,
                ..
            }
        ));
        let full = store_error_frame(&StoreError::OutOfSpace);
        assert!(matches!(
            full,
            Response::Error {
                status: Status::OutOfSpace,
                ..
            }
        ));
        let unknown = store_error_frame(&StoreError::UnknownNode(e2nvm_kvstore::NodeId(1)));
        assert!(matches!(
            unknown,
            Response::Error {
                status: Status::StoreError,
                ..
            }
        ));
    }

    #[test]
    fn collect_work_keeps_violations_in_order() {
        use crate::frame::{encode_request, DEFAULT_MAX_BODY, MAGIC, VERSION};
        let mut bytes = Vec::new();
        encode_request(&Request::Ping, &mut bytes);
        // An unknown opcode (survivable) between two good frames.
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[MAGIC, VERSION, 0x55, 0]);
        encode_request(&Request::Get { key: 9 }, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let mut items = Vec::new();
        assert_eq!(collect_work(&mut dec, &mut items), CollectEnd::NeedMore);
        assert!(matches!(items[0], Work::Req(Request::Ping)));
        assert!(matches!(
            items[1],
            Work::Bad(FrameError::UnknownOpcode(0x55))
        ));
        assert!(matches!(items[2], Work::Req(Request::Get { key: 9 })));
    }

    #[test]
    fn collect_work_stops_at_fatal_violation() {
        use crate::frame::{encode_request, DEFAULT_MAX_BODY};
        let mut bytes = Vec::new();
        encode_request(&Request::Ping, &mut bytes);
        bytes.extend_from_slice(b"GET / HTTP/1.1\r\n");
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let mut items = Vec::new();
        assert_eq!(collect_work(&mut dec, &mut items), CollectEnd::Fatal);
        assert_eq!(items.len(), 2);
        assert!(matches!(items[1], Work::Bad(FrameError::BadMagic(_))));
    }
}
