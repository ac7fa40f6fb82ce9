//! # e2nvm-core — the E2-NVM storage layer (the paper's contribution)
//!
//! E2-NVM reduces NVM bit flips — and with them write energy and wear —
//! by *choosing where to write*: free memory segments are clustered by
//! content similarity with a jointly trained VAE + K-means model, and
//! each incoming value is routed to a free segment whose resident
//! content already resembles it, so the data-comparison write programs
//! only a few bits.
//!
//! The moving parts, matching the paper's Figure 3:
//!
//! * [`E2Model`] — the trained encoder + centroids ([`model`]).
//! * [`DynamicAddressPool`] — cluster → free-address lists ([`dap`]).
//! * [`Padder`] — fitting variable-size values to the fixed model input
//!   ([`padding`]; 7 types × 3 locations, §4 of the paper).
//! * [`E2Engine`] — Algorithms 1 & 2 (write/delete) plus GET/SCAN over a
//!   simulated NVM device ([`engine`]). Its `BTreeMap` key index plays
//!   the paper's DRAM "RB-tree data index" role (Algorithm 1's
//!   `RB-Tree.put(D, A)`).
//! * [`retrain::BackgroundRetrainer`] — lazy retraining when a cluster's
//!   free list runs low (§4.1.4).
//! * [`ShardedEngine`] — thread-safe serving (§5.1): N independent
//!   engines, each behind its own mutex with its own background
//!   retrainer, over disjoint segment partitions with hash-routed keys
//!   ([`sharded`]). One shard is the single-engine case. The Figure 3
//!   key-value store, `e2nvm_kvstore::ShardedE2KvStore`, runs on it.
//! * [`kselect`] — SSE elbow + energy valley for picking K (Figure 8).
//! * [`batch`] — grouping small writes into segment-sized batches, the
//!   packing behind [`E2Engine::put_many`] (§4.1.4).
//!
//! ```no_run
//! use e2nvm_core::{E2Config, E2Engine};
//! use e2nvm_sim::{DeviceConfig, MemoryController, NvmDevice};
//!
//! let device = NvmDevice::new(
//!     DeviceConfig::builder().segment_bytes(256).num_segments(1024).build().unwrap(),
//! );
//! let mut engine = E2Engine::new(
//!     MemoryController::without_wear_leveling(device),
//!     E2Config::default(),
//! ).unwrap();
//! engine.train().unwrap();
//! engine.put(42, b"value").unwrap();
//! assert_eq!(engine.get(42).unwrap(), b"value");
//! ```

pub mod batch;
pub mod config;
pub mod dap;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod kselect;
pub mod model;
pub mod padding;
pub mod retrain;
pub mod sharded;
pub mod telemetry;

pub use batch::{Batch, BatchAccumulator};
pub use config::{E2Config, E2ConfigBuilder};
pub use dap::{DapError, DynamicAddressPool};
pub use engine::{E2Engine, EngineState, PredictionStats};
pub use error::{E2Error, Result};
pub use incremental::IncrementalIndexer;
pub use kselect::{sweep_k, KSelection, KSweepPoint};
pub use model::E2Model;
pub use padding::{Padder, PaddingLocation, PaddingType};
pub use retrain::BackgroundRetrainer;
pub use sharded::ShardedEngine;
pub use telemetry::EngineTelemetry;
