//! Full-system snapshots: one atomic file capturing, per shard, the
//! device image (contents + wear + fault state, via
//! `e2nvm_sim::snapshot`), the engine's durable state (model weights,
//! retirement, key index, via `e2nvm_core::EngineState`), and the
//! memory controller's translation state (wear-leveling policy,
//! logical→physical remap, quarantined physical slots, via
//! `e2nvm_sim::ControllerState`).
//!
//! Format (little-endian): magic `E2SS`, version, shard count, one
//! [`ShardState`] block per shard, then a CRC-32 trailer over
//! everything before it. Version 2 appends a controller section to
//! each shard block; version 1 files (no controller section) still
//! load, with [`ShardState::controller`] set to `None` — v1 snapshots
//! were only ever taken under the identity mapping, so "no controller
//! state" and "pass-through controller" coincide.
//! [`SnapshotWriter`] streams that format to a temp file one shard at
//! a time (checksumming as it goes, so no caller holds more than one
//! shard's state or the whole serialized file), fsyncs, renames over
//! `snapshot.e2s` and fsyncs the directory, so a crash mid-snapshot
//! leaves the previous snapshot intact — and because WAL replay is
//! idempotent (records are full-value upserts/deletes), a crash
//! between the rename and the WAL truncation merely replays ops the
//! new snapshot already contains.

use crate::crc::{crc32, Crc32};
use crate::error::{PersistError, Result};
use e2nvm_core::EngineState;
use e2nvm_sim::{ControllerState, LogicalSegment, PhysicalSegment, WearPolicyState};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"E2SS";
const VERSION: u16 = 2;
/// Sanity bound on any length field during decode; larger values are
/// treated as corruption, not allocation requests.
const MAX_FIELD: u64 = 1 << 32;

/// Policy tags for the controller section (version 2).
const POLICY_NONE: u16 = 0;
const POLICY_START_GAP: u16 = 1;
const POLICY_RANDOM_SWAP: u16 = 2;

/// One shard's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    /// Device image (`e2nvm_sim::snapshot::to_image`): contents, wear
    /// counters, fault-model state.
    pub device_image: Vec<u8>,
    /// Engine state: serialized model, retired segments, key index.
    pub state: EngineState,
    /// Controller state: wear-leveling policy, logical→physical remap,
    /// quarantined physical slots. `None` when loaded from a version-1
    /// snapshot, which implies a pass-through (identity) controller.
    pub controller: Option<ControllerState>,
}

/// A whole store's snapshot: one [`ShardState`] per shard, in shard
/// order (shard routing is derived from the count, so order matters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Per-shard state, index = shard id.
    pub shards: Vec<ShardState>,
}

/// Where the encoder puts bytes: a `Vec` ([`StoreSnapshot::to_bytes`])
/// or a [`SnapshotWriter`]'s file. Infallible by signature; the writer
/// keeps its first I/O error and reports it after the block.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_le_bytes());
}

fn put_bytes(buf: &mut impl Sink, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.put(b);
}

fn put_header(buf: &mut impl Sink, shard_count: usize) {
    buf.put(MAGIC);
    buf.put(&VERSION.to_le_bytes());
    put_u64(buf, shard_count as u64);
}

fn put_shard(buf: &mut impl Sink, shard: &ShardState) {
    put_bytes(buf, &shard.device_image);
    put_bytes(buf, &shard.state.model);
    put_u64(buf, shard.state.retired.len() as u64);
    for seg in &shard.state.retired {
        put_u64(buf, seg.index() as u64);
    }
    put_u64(buf, shard.state.entries.len() as u64);
    for &(key, seg, off, len) in &shard.state.entries {
        put_u64(buf, key);
        put_u64(buf, seg.index() as u64);
        put_u64(buf, off as u64);
        put_u64(buf, len as u64);
    }
    match &shard.controller {
        Some(cs) => {
            buf.put(&1u16.to_le_bytes());
            put_controller(buf, cs);
        }
        None => buf.put(&0u16.to_le_bytes()),
    }
}

fn put_controller(buf: &mut impl Sink, cs: &ControllerState) {
    let (tag, fields): (u16, Vec<u64>) = match cs.policy {
        WearPolicyState::None => (POLICY_NONE, Vec::new()),
        WearPolicyState::StartGap { psi, writes, gap } => {
            (POLICY_START_GAP, vec![psi, writes, gap.index() as u64])
        }
        WearPolicyState::RandomSwap {
            psi,
            seed,
            writes,
            draws,
        } => (POLICY_RANDOM_SWAP, vec![psi, seed, writes, draws]),
    };
    buf.put(&tag.to_le_bytes());
    for v in fields {
        put_u64(buf, v);
    }
    put_u64(buf, cs.remap.len() as u64);
    for &p in &cs.remap {
        // `usize::MAX` is the unmapped-gap sentinel; widen it to the
        // u64 sentinel so the value survives on any pointer width.
        put_u64(buf, if p == usize::MAX { u64::MAX } else { p as u64 });
    }
    put_u64(buf, cs.retired.len() as u64);
    let flags: Vec<u8> = cs.retired.iter().map(|&r| u8::from(r)).collect();
    buf.put(&flags);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PersistError::Corrupt("snapshot truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        if v > MAX_FIELD {
            return Err(PersistError::Corrupt(format!(
                "implausible length field {v}"
            )));
        }
        Ok(v as usize)
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn controller(&mut self) -> Result<ControllerState> {
        let policy = match self.u16()? {
            POLICY_NONE => WearPolicyState::None,
            POLICY_START_GAP => WearPolicyState::StartGap {
                psi: self.u64()?,
                writes: self.u64()?,
                gap: PhysicalSegment(self.len()?),
            },
            POLICY_RANDOM_SWAP => WearPolicyState::RandomSwap {
                psi: self.u64()?,
                seed: self.u64()?,
                writes: self.u64()?,
                draws: self.u64()?,
            },
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown wear policy tag {other}"
                )))
            }
        };
        let n = self.len()?;
        let mut remap = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let v = self.u64()?;
            remap.push(if v == u64::MAX {
                usize::MAX
            } else if v > MAX_FIELD {
                return Err(PersistError::Corrupt(format!(
                    "implausible remap entry {v}"
                )));
            } else {
                v as usize
            });
        }
        let nr = self.len()?;
        let mut retired = Vec::with_capacity(nr.min(1 << 20));
        for _ in 0..nr {
            retired.push(match self.take(1)?[0] {
                0 => false,
                1 => true,
                b => {
                    return Err(PersistError::Corrupt(format!(
                        "retired flag must be 0 or 1, got {b}"
                    )))
                }
            });
        }
        Ok(ControllerState {
            policy,
            remap,
            retired,
        })
    }
}

impl StoreSnapshot {
    /// Serialize to the `E2SS` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, self.shards.len());
        for shard in &self.shards {
            put_shard(&mut buf, shard);
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserialize, verifying magic, version, structure and the CRC
    /// trailer. Never panics on arbitrary input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < 4 {
            return Err(PersistError::Corrupt("snapshot too short".into()));
        }
        let (body, trailer) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4"));
        if crc32(body) != stored {
            return Err(PersistError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(PersistError::Corrupt("not a store snapshot".into()));
        }
        let version = c.u16()?;
        if version != 1 && version != VERSION {
            return Err(PersistError::Corrupt(format!(
                "unknown snapshot version {version}"
            )));
        }
        let shard_count = c.len()?;
        let mut shards = Vec::with_capacity(shard_count.min(1 << 12));
        for _ in 0..shard_count {
            let device_image = c.bytes()?;
            let model = c.bytes()?;
            let n_retired = c.len()?;
            let mut retired = Vec::with_capacity(n_retired.min(1 << 20));
            for _ in 0..n_retired {
                retired.push(LogicalSegment(c.len()?));
            }
            let n_entries = c.len()?;
            let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
            for _ in 0..n_entries {
                let key = c.u64()?;
                let seg = LogicalSegment(c.len()?);
                let off = c.len()?;
                let len = c.len()?;
                entries.push((key, seg, off, len));
            }
            // v1 shard blocks end here; v2 appends the controller
            // section behind a presence tag.
            let controller = if version >= 2 {
                match c.u16()? {
                    0 => None,
                    1 => Some(c.controller()?),
                    other => {
                        return Err(PersistError::Corrupt(format!(
                            "controller presence tag must be 0 or 1, got {other}"
                        )))
                    }
                }
            } else {
                None
            };
            shards.push(ShardState {
                device_image,
                state: EngineState {
                    model,
                    retired,
                    entries,
                },
                controller,
            });
        }
        if c.pos != body.len() {
            return Err(PersistError::Corrupt(
                "trailing bytes after snapshot".into(),
            ));
        }
        Ok(Self { shards })
    }

    /// Load a snapshot from `path`; `Ok(None)` when the file does not
    /// exist (fresh start).
    pub fn load(path: &Path) -> Result<Option<Self>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        Self::from_bytes(&buf).map(Some)
    }
}

/// Writes a snapshot to disk one shard at a time: the file bytes equal
/// [`StoreSnapshot::to_bytes`] of the same shards, but neither the
/// serialized file nor more than the one shard being written needs to
/// be in memory. The write is atomic: bytes go to a temp file in the
/// target's directory, and [`SnapshotWriter::commit`] appends the CRC
/// trailer, fsyncs, renames over the target and fsyncs the directory.
/// Dropping the writer without committing leaves the previous snapshot
/// in place.
pub struct SnapshotWriter {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
    /// Running CRC-32 and length of everything written so far.
    crc: Crc32,
    len: u64,
    /// The first write error, reported by the next `check`.
    err: Option<std::io::Error>,
    remaining: usize,
}

impl Sink for SnapshotWriter {
    fn put(&mut self, bytes: &[u8]) {
        if self.err.is_some() {
            return;
        }
        match self.out.write_all(bytes) {
            Ok(()) => {
                self.crc.update(bytes);
                self.len += bytes.len() as u64;
            }
            Err(e) => self.err = Some(e),
        }
    }
}

impl SnapshotWriter {
    /// Start a snapshot of `shard_count` shards bound for `path`.
    pub fn create(path: &Path, shard_count: usize) -> Result<Self> {
        let dir = path.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let tmp = path.with_extension("e2s.tmp");
        let mut w = Self {
            out: BufWriter::new(File::create(&tmp)?),
            path: path.to_path_buf(),
            tmp,
            crc: Crc32::new(),
            len: 0,
            err: None,
            remaining: shard_count,
        };
        put_header(&mut w, shard_count);
        w.check()?;
        Ok(w)
    }

    /// Append the next shard's block (shards go in shard order).
    pub fn write_shard(&mut self, shard: &ShardState) -> Result<()> {
        if self.remaining == 0 {
            return Err(PersistError::Mismatch(
                "snapshot writer: more shards than announced".into(),
            ));
        }
        self.remaining -= 1;
        put_shard(self, shard);
        self.check()
    }

    /// Finish the file and atomically replace the target with it.
    /// Returns the bytes written.
    pub fn commit(mut self) -> Result<u64> {
        if self.remaining != 0 {
            return Err(PersistError::Mismatch(format!(
                "snapshot writer: {} announced shards never written",
                self.remaining
            )));
        }
        let crc = self.crc.finish();
        self.out.write_all(&crc.to_le_bytes())?;
        let file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        // Persist the rename itself.
        let dir = self.path.parent().unwrap_or(Path::new("."));
        if let Ok(d) = OpenOptions::new().read(true).open(dir) {
            d.sync_all().ok();
        }
        Ok(self.len + 4)
    }

    /// Surface the first write error, if any.
    fn check(&mut self) -> Result<()> {
        self.err.take().map_or(Ok(()), |e| Err(e.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreSnapshot {
        StoreSnapshot {
            shards: vec![
                ShardState {
                    device_image: vec![1, 2, 3, 4],
                    state: EngineState {
                        model: vec![9; 17],
                        retired: vec![LogicalSegment(3), LogicalSegment(7)],
                        entries: vec![
                            (42, LogicalSegment(1), 0, 64),
                            (43, LogicalSegment(2), 64, 32),
                        ],
                    },
                    controller: Some(ControllerState {
                        policy: WearPolicyState::StartGap {
                            psi: 64,
                            writes: 129,
                            gap: PhysicalSegment(5),
                        },
                        remap: vec![0, 1, 2, 3, 4, 6, 7, 8],
                        retired: vec![false, false, false, true, false, false, false, true, false],
                    }),
                },
                ShardState {
                    device_image: Vec::new(),
                    state: EngineState {
                        model: Vec::new(),
                        retired: Vec::new(),
                        entries: Vec::new(),
                    },
                    controller: None,
                },
                ShardState {
                    device_image: vec![5],
                    state: EngineState {
                        model: Vec::new(),
                        retired: Vec::new(),
                        entries: Vec::new(),
                    },
                    controller: Some(ControllerState {
                        policy: WearPolicyState::RandomSwap {
                            psi: 16,
                            seed: 0xE2,
                            writes: 40,
                            draws: 3,
                        },
                        remap: vec![2, 0, 1],
                        retired: vec![false, true, false],
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let restored = StoreSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn version_1_snapshots_still_load() {
        // Hand-encode the v1 layout (no controller section) and check
        // it decodes with `controller: None` for every shard.
        let shards = sample().shards;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        put_u64(&mut buf, shards.len() as u64);
        for shard in &shards {
            put_bytes(&mut buf, &shard.device_image);
            put_bytes(&mut buf, &shard.state.model);
            put_u64(&mut buf, shard.state.retired.len() as u64);
            for seg in &shard.state.retired {
                put_u64(&mut buf, seg.index() as u64);
            }
            put_u64(&mut buf, shard.state.entries.len() as u64);
            for &(key, seg, off, len) in &shard.state.entries {
                put_u64(&mut buf, key);
                put_u64(&mut buf, seg.index() as u64);
                put_u64(&mut buf, off as u64);
                put_u64(&mut buf, len as u64);
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let restored = StoreSnapshot::from_bytes(&buf).unwrap();
        assert_eq!(restored.shards.len(), shards.len());
        for (got, want) in restored.shards.iter().zip(&shards) {
            assert_eq!(got.device_image, want.device_image);
            assert_eq!(got.state, want.state);
            assert_eq!(got.controller, None);
        }
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                StoreSnapshot::from_bytes(&bad).is_err(),
                "flip at {i} undetected"
            );
        }
        assert!(StoreSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn atomic_file_roundtrip() {
        let dir = std::env::temp_dir().join("e2nvm_snap_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.e2s");
        let snap = sample();
        let mut out = SnapshotWriter::create(&path, snap.shards.len()).unwrap();
        for shard in &snap.shards {
            out.write_shard(shard).unwrap();
        }
        let written = out.commit().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, snap.to_bytes());
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(StoreSnapshot::load(&path).unwrap().unwrap(), snap);

        // A writer that sees the wrong number of shards never replaces
        // the committed snapshot.
        let mut short = SnapshotWriter::create(&path, 2).unwrap();
        short.write_shard(&snap.shards[0]).unwrap();
        assert!(short.commit().is_err());
        let mut long = SnapshotWriter::create(&path, 1).unwrap();
        long.write_shard(&snap.shards[0]).unwrap();
        assert!(long.write_shard(&snap.shards[1]).is_err());
        drop(long);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
        assert!(StoreSnapshot::load(&path).unwrap().is_none());
    }
}
