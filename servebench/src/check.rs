//! The output check: every response is compared with a shadow map of
//! what its connection has written so far.
//!
//! Responses on one connection arrive in request order and no other
//! connection writes its keys (see `workload`), so the shadow holds
//! exactly the store's content for this connection's half at the
//! moment the server executed each request. A GET must return the
//! shadow's value, a DELETE must report whether the shadow held the
//! key, and a scan must return, in ascending order and inside its
//! range, exactly the first `limit` shadow entries of its range.

use crate::workload::{value, Op};
use e2nvm_server::frame::{parse_response, Opcode, RawFrame, Response, Status};
use std::collections::BTreeMap;

/// Why a response was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// An error frame (store error, refusal such as BUSY or
    /// SHUTTING_DOWN, or a protocol error).
    ErrorStatus,
    /// A frame that does not answer the request's opcode.
    Malformed,
    /// A GET returned a value other than the last one written.
    WrongValue,
    /// A GET found no value for a key the shadow holds.
    Missing,
    /// A GET returned a value for a key the shadow does not hold.
    Unexpected,
    /// A DELETE's existed flag disagrees with the shadow.
    WrongDeleteAck,
    /// A scan returned a key outside `lo..=hi`.
    ScanOutOfRange,
    /// A scan's keys were not strictly ascending.
    ScanOutOfOrder,
    /// A scan returned fewer records than its limit and the shadow allow.
    ScanShort,
    /// A scan returned more records than its limit and the shadow allow.
    ScanLong,
    /// A scan returned a record that is not the next one in the shadow.
    ScanWrongEntry,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::ErrorStatus => "error_status",
            Failure::Malformed => "malformed",
            Failure::WrongValue => "wrong_value",
            Failure::Missing => "missing",
            Failure::Unexpected => "unexpected",
            Failure::WrongDeleteAck => "wrong_delete_ack",
            Failure::ScanOutOfRange => "scan_out_of_range",
            Failure::ScanOutOfOrder => "scan_out_of_order",
            Failure::ScanShort => "scan_short",
            Failure::ScanLong => "scan_long",
            Failure::ScanWrongEntry => "scan_wrong_entry",
        }
    }
}

/// Progress through one streamed scan response.
#[derive(Debug, Default)]
struct ScanState {
    returned: u64,
    last: Option<u64>,
    /// Lower bound of the shadow entries not yet matched.
    cursor: u64,
    /// The worst failure seen so far (ordered by [`Failure`]'s order).
    failure: Option<Failure>,
}

/// One connection's shadow map and failure tally.
#[derive(Debug, Default)]
pub struct Checker {
    shadow: BTreeMap<u64, u32>,
    scan: Option<ScanState>,
    /// Failed requests, by reason.
    pub failures: BTreeMap<Failure, u64>,
}

impl Checker {
    pub fn new() -> Self {
        Self::default()
    }

    /// The keys this connection has live, in order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.shadow.keys().copied()
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Feed one response frame answering `op`. Returns `None` while a
    /// streamed scan has more chunks to come, and otherwise whether the
    /// request passed.
    pub fn on_frame(&mut self, op: Op, values: &[u8], frame: &RawFrame<'_>) -> Option<bool> {
        let verdict = match op {
            Op::Scan { lo, hi, limit } => return self.on_scan_frame(lo, hi, limit, values, frame),
            Op::Get(key) => self.check_get(key, values, frame),
            Op::Put(key, v) => {
                if frame.code == Status::Ok as u8 && frame.aux == Opcode::Put as u8 {
                    self.shadow.insert(key, v);
                    Ok(())
                } else {
                    Err(status_failure(frame))
                }
            }
            Op::Delete(key) => {
                let existed = self.shadow.remove(&key).is_some();
                if frame.code != Status::Ok as u8 || frame.aux != Opcode::Delete as u8 {
                    Err(status_failure(frame))
                } else if frame.body != [u8::from(existed)] {
                    Err(Failure::WrongDeleteAck)
                } else {
                    Ok(())
                }
            }
        };
        Some(self.finish(verdict.err()))
    }

    fn finish(&mut self, failure: Option<Failure>) -> bool {
        match failure {
            Some(f) => {
                *self.failures.entry(f).or_default() += 1;
                false
            }
            None => true,
        }
    }

    fn check_get(&mut self, key: u64, values: &[u8], frame: &RawFrame<'_>) -> Result<(), Failure> {
        let expected = self.shadow.get(&key).map(|&v| value(values, v));
        if frame.aux != Opcode::Get as u8 {
            return Err(status_failure(frame));
        }
        match (frame.code, expected) {
            (c, Some(want)) if c == Status::Ok as u8 => {
                if frame.body == want {
                    Ok(())
                } else {
                    Err(Failure::WrongValue)
                }
            }
            (c, None) if c == Status::Ok as u8 => Err(Failure::Unexpected),
            (c, Some(_)) if c == Status::NotFound as u8 => Err(Failure::Missing),
            (c, None) if c == Status::NotFound as u8 => Ok(()),
            _ => Err(status_failure(frame)),
        }
    }

    fn on_scan_frame(
        &mut self,
        lo: u64,
        hi: u64,
        limit: u32,
        values: &[u8],
        frame: &RawFrame<'_>,
    ) -> Option<bool> {
        let mut state = self.scan.take().unwrap_or(ScanState {
            cursor: lo,
            ..ScanState::default()
        });
        let more = match parse_response(frame) {
            Ok(Response::ScanChunk { more, entries }) if frame.aux == Opcode::ScanStream as u8 => {
                for (key, bytes) in &entries {
                    self.scan_entry(&mut state, lo, hi, *key, bytes, values);
                }
                more
            }
            Ok(Response::Error { .. }) => {
                state.failure = Some(Failure::ErrorStatus);
                false
            }
            _ => {
                state.failure = Some(Failure::Malformed);
                false
            }
        };
        if more {
            self.scan = Some(state);
            return None;
        }
        let cap = if limit == 0 {
            usize::MAX
        } else {
            limit as usize
        };
        let expected = self.shadow.range(lo..=hi).take(cap).count() as u64;
        let count_failure = match state.returned.cmp(&expected) {
            std::cmp::Ordering::Less => Some(Failure::ScanShort),
            std::cmp::Ordering::Greater => Some(Failure::ScanLong),
            std::cmp::Ordering::Equal => None,
        };
        Some(self.finish(worst(state.failure, count_failure)))
    }

    fn scan_entry(
        &self,
        state: &mut ScanState,
        lo: u64,
        hi: u64,
        key: u64,
        bytes: &[u8],
        values: &[u8],
    ) {
        state.returned += 1;
        let mut failure = None;
        if key < lo || key > hi {
            failure = Some(Failure::ScanOutOfRange);
        } else if state.last.is_some_and(|last| key <= last) {
            failure = Some(Failure::ScanOutOfOrder);
        } else {
            let next = self.shadow.range(state.cursor..=hi).next();
            if next.map(|(&k, &v)| (k, value(values, v))) != Some((key, bytes)) {
                failure = Some(Failure::ScanWrongEntry);
            }
            state.cursor = key.saturating_add(1);
        }
        state.last = Some(key);
        state.failure = worst(state.failure, failure);
    }
}

/// The failure to report when a request has several: protocol-level
/// failures first, then structural scan failures, then content.
fn worst(a: Option<Failure>, b: Option<Failure>) -> Option<Failure> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn status_failure(frame: &RawFrame<'_>) -> Failure {
    match Status::from_u8(frame.code) {
        Some(Status::Ok) | Some(Status::NotFound) => Failure::Malformed,
        _ => Failure::ErrorStatus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::VALUE_LEN;
    use e2nvm_server::frame::{
        encode_response, encode_scan_chunk, FrameDecoder, MAX_RESPONSE_BODY,
    };

    /// Value arena: value `i` is `VALUE_LEN` bytes of `i`.
    fn arena(n: u8) -> Vec<u8> {
        (0..n).flat_map(|i| [i; VALUE_LEN]).collect()
    }

    /// Feed `bytes` (one or more encoded response frames) for `op`,
    /// returning the verdict of the frame that completed the request.
    fn feed(checker: &mut Checker, op: Op, values: &[u8], bytes: &[u8]) -> Option<bool> {
        let mut dec = FrameDecoder::new(MAX_RESPONSE_BODY);
        dec.extend(bytes);
        let mut verdict = None;
        while let Some(frame) = dec.next_frame().unwrap() {
            verdict = checker.on_frame(op, values, &frame);
        }
        verdict
    }

    fn put(checker: &mut Checker, values: &[u8], key: u64, v: u32) {
        let mut out = Vec::new();
        encode_response(&Response::Stored, Some(Opcode::Put), &mut out);
        assert_eq!(feed(checker, Op::Put(key, v), values, &out), Some(true));
    }

    fn scan_reply(entries: &[(u64, u32)], values: &[u8]) -> Vec<u8> {
        let entries: Vec<(u64, Vec<u8>)> = entries
            .iter()
            .map(|&(k, v)| (k, value(values, v).to_vec()))
            .collect();
        let mut out = Vec::new();
        encode_scan_chunk(false, &entries, &mut out);
        out
    }

    fn loaded(values: &[u8]) -> Checker {
        let mut c = Checker::new();
        for k in 1..=5u64 {
            put(&mut c, values, k * 10, k as u32);
        }
        c
    }

    #[test]
    fn correct_responses_pass() {
        let values = arena(8);
        let mut c = loaded(&values);
        let mut out = Vec::new();
        encode_response(
            &Response::Value(value(&values, 2).to_vec()),
            Some(Opcode::Get),
            &mut out,
        );
        assert_eq!(feed(&mut c, Op::Get(20), &values, &out), Some(true));
        let reply = scan_reply(&[(20, 2), (30, 3), (40, 4)], &values);
        let scan = Op::Scan {
            lo: 15,
            hi: 100,
            limit: 3,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(true));
        assert_eq!(c.failed(), 0);
    }

    #[test]
    fn wrong_get_value_fails() {
        let values = arena(8);
        let mut c = loaded(&values);
        let mut out = Vec::new();
        encode_response(
            &Response::Value(value(&values, 7).to_vec()),
            Some(Opcode::Get),
            &mut out,
        );
        assert_eq!(feed(&mut c, Op::Get(20), &values, &out), Some(false));
        assert_eq!(c.failures.get(&Failure::WrongValue), Some(&1));
    }

    #[test]
    fn out_of_order_scan_fails() {
        let values = arena(8);
        let mut c = loaded(&values);
        let reply = scan_reply(&[(10, 1), (30, 3), (20, 2)], &values);
        let scan = Op::Scan {
            lo: 0,
            hi: 100,
            limit: 3,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(false));
        assert_eq!(c.failures.get(&Failure::ScanOutOfOrder), Some(&1));
    }

    #[test]
    fn short_scan_fails() {
        let values = arena(8);
        let mut c = loaded(&values);
        // The first two records are right, but the limit and the shadow
        // allow three.
        let reply = scan_reply(&[(10, 1), (20, 2)], &values);
        let scan = Op::Scan {
            lo: 0,
            hi: 100,
            limit: 3,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(false));
        assert_eq!(c.failures.get(&Failure::ScanShort), Some(&1));
    }

    #[test]
    fn scan_limited_by_shadow_is_not_short() {
        let values = arena(8);
        let mut c = loaded(&values);
        let reply = scan_reply(&[(40, 4), (50, 5)], &values);
        let scan = Op::Scan {
            lo: 35,
            hi: 100,
            limit: 90,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(true));
    }

    #[test]
    fn scan_out_of_range_and_skipped_entries_fail() {
        let values = arena(8);
        let mut c = loaded(&values);
        let reply = scan_reply(&[(10, 1), (20, 2)], &values);
        let scan = Op::Scan {
            lo: 15,
            hi: 100,
            limit: 2,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(false));
        assert_eq!(c.failures.get(&Failure::ScanOutOfRange), Some(&1));
        // Skipping 20 returns the right count but the wrong records.
        let reply = scan_reply(&[(10, 1), (30, 3)], &values);
        let scan = Op::Scan {
            lo: 0,
            hi: 100,
            limit: 2,
        };
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(false));
        assert_eq!(c.failures.get(&Failure::ScanWrongEntry), Some(&1));
    }

    #[test]
    fn multi_chunk_scan_completes_on_the_last_chunk() {
        let values = arena(8);
        let mut c = loaded(&values);
        let scan = Op::Scan {
            lo: 0,
            hi: 100,
            limit: 0,
        };
        let first: Vec<(u64, Vec<u8>)> = vec![
            (10, value(&values, 1).to_vec()),
            (20, value(&values, 2).to_vec()),
        ];
        let mut out = Vec::new();
        encode_scan_chunk(true, &first, &mut out);
        assert_eq!(feed(&mut c, scan, &values, &out), None);
        let reply = scan_reply(&[(30, 3), (40, 4), (50, 5)], &values);
        assert_eq!(feed(&mut c, scan, &values, &reply), Some(true));
    }

    #[test]
    fn error_frames_and_bad_deletes_fail() {
        let values = arena(8);
        let mut c = loaded(&values);
        let mut out = Vec::new();
        let busy = Response::Error {
            status: Status::Busy,
            retired: 0,
            message: String::new(),
        };
        encode_response(&busy, Some(Opcode::Put), &mut out);
        assert_eq!(feed(&mut c, Op::Put(60, 1), &values, &out), Some(false));
        assert_eq!(c.failures.get(&Failure::ErrorStatus), Some(&1));
        out.clear();
        encode_response(&Response::Deleted(false), Some(Opcode::Delete), &mut out);
        assert_eq!(feed(&mut c, Op::Delete(10), &values, &out), Some(false));
        assert_eq!(c.failures.get(&Failure::WrongDeleteAck), Some(&1));
        out.clear();
        encode_response(&Response::NotFound, Some(Opcode::Get), &mut out);
        assert_eq!(feed(&mut c, Op::Get(20), &values, &out), Some(false));
        assert_eq!(c.failures.get(&Failure::Missing), Some(&1));
        assert_eq!(c.failed(), 3);
    }
}
