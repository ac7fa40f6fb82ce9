//! # e2nvm-persist — crash-consistent persistence for the E2-NVM stack
//!
//! One versioned facade over everything the serving stack must remember
//! across a restart, in a single crate:
//!
//! * [`Wal`] / [`replay_and_truncate`] — a per-shard write-ahead log of
//!   KV mutations: length-prefixed CRC-checksummed records, group-commit
//!   fsync under a configurable [`FlushPolicy`], torn-tail truncation on
//!   replay.
//! * [`StoreSnapshot`] — an atomic full-system snapshot: per shard, the
//!   device image (contents, wear counters, fault state) plus the
//!   engine's [`e2nvm_core::EngineState`] (model weights, retirement,
//!   key index).
//! * [`PersistenceConfig`] — a validated builder (`data_dir`, flush
//!   policy, snapshot period), like `E2Config` and `ServerConfig`.
//! * [`save_model`]/[`load_model`], [`save_device`]/[`load_device`] —
//!   file helpers for a single model artifact or device image.
//! * [`codec`] — the low-level `Writer`/`Reader`/`Persist` byte codec
//!   re-exported for implementors of new persistent artifacts.
//!
//! The recovery protocol built on these pieces (snapshot load → WAL
//! replay → attach) lives in `e2nvm_kvstore::ShardedE2KvStore::recover`;
//! DESIGN.md §14 documents the format and crash-ordering argument.

#![warn(missing_docs)]

mod config;
mod crc;
mod error;
mod snapshot;
mod telemetry;
mod wal;

pub use config::{FlushPolicy, PersistenceConfig, PersistenceConfigBuilder};
pub use crc::crc32;
pub use error::{PersistError, Result};
pub use snapshot::{ShardState, SnapshotWriter, StoreSnapshot};
pub use telemetry::PersistTelemetry;
pub use wal::{
    decode_records, encode_record, replay_and_truncate, Replay, SyncPort, Wal, WalOp, WalSyncer,
    MAX_RECORD_PAYLOAD,
};

/// The low-level persistence byte codec (header/tag/length discipline),
/// shared by the model artifact and available to new persistent types.
pub mod codec {
    pub use e2nvm_ml::persist::{Persist, PersistError as CodecError, Reader, Writer};
}

use e2nvm_core::E2Model;
use e2nvm_sim::NvmDevice;
use std::path::Path;

/// Save a trained model artifact ([`E2Model::to_bytes`]) to a file.
pub fn save_model(model: &E2Model, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, model.to_bytes()).map_err(PersistError::Io)
}

/// Load a model artifact from a file.
pub fn load_model(path: impl AsRef<Path>) -> Result<E2Model> {
    let bytes = std::fs::read(path)?;
    E2Model::from_bytes(&bytes).map_err(|e| PersistError::Corrupt(format!("model artifact: {e}")))
}

/// Save a device image (contents + wear + fault state) to a file.
pub fn save_device(device: &NvmDevice, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, e2nvm_sim::snapshot::to_image(device)).map_err(PersistError::Io)
}

/// Load a device image from a file.
pub fn load_device(path: impl AsRef<Path>) -> Result<NvmDevice> {
    let bytes = std::fs::read(path)?;
    e2nvm_sim::snapshot::from_image(&bytes)
        .map_err(|e| PersistError::Corrupt(format!("device image: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_core::E2Config;
    use e2nvm_ml::rng::seeded;
    use e2nvm_sim::{DeviceConfig, PhysicalSegment, WearTracking};
    use rand::Rng;

    #[test]
    fn device_file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("e2nvm_persist_facade");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.img");
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(4)
                .block_bytes(64)
                .build()
                .unwrap(),
        );
        dev.seed_segment(e2nvm_sim::PhysicalSegment(1), &[7u8; 64])
            .unwrap();
        save_device(&dev, &path).unwrap();
        let restored = load_device(&path).unwrap();
        assert_eq!(restored.peek(e2nvm_sim::PhysicalSegment(1)), &[7u8; 64]);
        std::fs::remove_file(&path).ok();
        assert!(load_device(&path).is_err());
    }

    #[test]
    fn worn_device_file_roundtrip() {
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(8)
                .block_bytes(64)
                .wear_tracking(WearTracking::PerBit)
                .build()
                .unwrap(),
        );
        dev.fill_random(&mut seeded(1));
        for round in 0..5u8 {
            for i in 0..8 {
                dev.write(PhysicalSegment(i), &[round.wrapping_mul(37); 64])
                    .unwrap();
            }
        }
        let path = std::env::temp_dir().join("e2nvm_device_image_test.bin");
        save_device(&dev, &path).unwrap();
        let restored = load_device(&path).unwrap();
        assert_eq!(
            restored.peek(PhysicalSegment(3)),
            dev.peek(PhysicalSegment(3))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_file_roundtrip() {
        let mut rng = seeded(10);
        let contents: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                let base = if i < 20 { 0x00u8 } else { 0xFF };
                (0..16)
                    .map(|_| if rng.gen::<f32>() < 0.08 { !base } else { base })
                    .collect()
            })
            .collect();
        let cfg = E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(8)
            .joint_epochs(2)
            .build()
            .unwrap();
        let model = E2Model::train(&cfg, &contents, &mut rng);
        let path = std::env::temp_dir().join("e2nvm_model_test.bin");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(
            loaded.classify_segments(&contents),
            model.classify_segments(&contents)
        );
        std::fs::remove_file(&path).ok();
    }
}
