//! # e2nvm-sim — a software model of a PCM/Optane NVM device
//!
//! This crate is the measurement substrate for the E2-NVM reproduction
//! (EDBT 2023). The paper evaluates bit-flip reduction on a mix of a real
//! Intel Optane DIMM and an *emulated* Optane device (its §5.2 notes that
//! bit flips "cannot be measured using the real device"); this crate is
//! that emulated device, extended with calibrated energy and latency
//! models so that every figure of the paper can be regenerated in
//! software.
//!
//! ## Model
//!
//! * The device is a pool of fixed-size **segments** backed by ordinary
//!   memory. All placement logic in the rest of the workspace addresses
//!   the device at segment granularity.
//! * Writes are mediated at **cache-line** (64 B) granularity inside
//!   **media blocks** (256 B), matching Optane's DDR-T behaviour: a line
//!   whose new content is identical to the stored content is *skipped*
//!   entirely (the source of the latency win in the paper's Figure 1),
//!   and within a written line a data-comparison write (DCW) at the media
//!   programs only the differing bits (the source of the energy win).
//! * Per-write accounting produces a [`WriteReport`] (lines written /
//!   skipped, bits flipped, energy in pJ, latency in ns); cumulative
//!   accounting lives in [`DeviceStats`], including optional per-segment
//!   write counters and per-bit flip counters used for the wear-leveling
//!   CDFs of the paper's Figure 19.
//! * A [`MemoryController`] wraps the device with a logical→physical
//!   segment remapping driven by a pluggable [`WearLeveler`] (start-gap
//!   or random swap every ψ writes), reproducing the interference the
//!   paper studies in Figure 2.
//!
//! ## Quick example
//!
//! ```
//! use e2nvm_sim::{DeviceConfig, NvmDevice};
//!
//! let cfg = DeviceConfig::builder()
//!     .segment_bytes(256)
//!     .num_segments(16)
//!     .build()
//!     .unwrap();
//! let mut dev = NvmDevice::new(cfg);
//! let a = dev.segment(0);
//! let report = dev.write(a, &vec![0xFFu8; 256]).unwrap();
//! assert_eq!(report.bits_flipped, 256 * 8); // device starts zeroed
//! let again = dev.write(a, &vec![0xFFu8; 256]).unwrap();
//! assert_eq!(again.bits_flipped, 0);        // identical content: free
//! assert!(again.energy_pj < report.energy_pj);
//! ```
//!
//! ## Fault injection
//!
//! Segments can be given a *finite* endurance budget (plus optional
//! transient write failures) through [`FaultConfig`]; see the [`fault`]
//! module for the model and `e2nvm-core` for the graceful-degradation
//! layer that retires worn-out segments.

#![warn(missing_docs)]

pub mod addr;
pub mod bitops;
pub mod config;
pub mod controller;
pub mod device;
pub mod energy;
pub mod error;
pub mod fault;
pub mod latency;
pub mod meter;
pub mod partition;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod wear_leveling;

pub use addr::{LogicalSegment, PhysicalSegment, SegmentRemap};
pub use config::{DeviceConfig, DeviceConfigBuilder, WearTracking};
pub use controller::{ControllerState, MemoryController};
pub use device::{NvmDevice, WriteReport};
pub use energy::{EnergyCategory, EnergyParams};
pub use error::{Result, SimError};
pub use fault::{FaultConfig, FaultModel, FaultStats};
pub use latency::LatencyParams;
pub use meter::EnergyMeter;
pub use partition::{
    partition_controllers, partition_controllers_with, partition_device, partition_segments,
    SegmentRange,
};
pub use stats::DeviceStats;
pub use telemetry::DeviceTelemetry;
pub use trace::{TraceEvent, WriteTrace};
pub use wear_leveling::{
    NoWearLeveling, RandomSwap, RetiredSet, StartGap, SwapAction, WearLeveler, WearPolicyState,
};
