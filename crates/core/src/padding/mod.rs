//! Padding strategies (paper §4): fitting variable-size values into the
//! fixed model input.
//!
//! The model is trained on `w`-bit inputs; a value of `p < w` bits is
//! padded with `q = w − p` synthetic bits *for prediction only* — padded
//! bits are never written to NVM. Two axes (Figure 5):
//!
//! * **Location**: before the data (beginning), split around it
//!   (middle/edges), or after it (end).
//! * **Type**: universal data-agnostic (zero / one / random), universal
//!   data-aware (input-based IB, dataset-based DB, memory-based MB), or
//!   **learned** (an LSTM that slides a 64-bit window and predicts 8
//!   bits per step, §4.1.3).

pub mod learned;

pub use learned::LearnedPadder;

use e2nvm_ml::data::bytes_to_features;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where the padding bits go relative to the value (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PaddingLocation {
    /// `[pad..., data]`
    Beginning,
    /// `[pad/2..., data, pad/2...]` ("padding in the edges").
    Middle,
    /// `[data, pad...]`
    #[default]
    End,
}

impl PaddingLocation {
    /// All locations, in the paper's presentation order.
    pub const ALL: [PaddingLocation; 3] = [
        PaddingLocation::Beginning,
        PaddingLocation::Middle,
        PaddingLocation::End,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaddingLocation::Beginning => "beginning",
            PaddingLocation::Middle => "middle",
            PaddingLocation::End => "end",
        }
    }
}

/// How the padding bits are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PaddingType {
    /// All zeros.
    Zero,
    /// All ones.
    One,
    /// Uniform random bits.
    Random,
    /// Input-based: 1-bits with the probability of 1s in the input item.
    InputBased,
    /// Dataset-based: probability from all items observed so far.
    DatasetBased,
    /// Memory-based: probability from the resident memory contents.
    MemoryBased,
    /// LSTM-generated (the paper's best performer).
    #[default]
    Learned,
}

impl PaddingType {
    /// All types, in the paper's presentation order.
    pub const ALL: [PaddingType; 7] = [
        PaddingType::Zero,
        PaddingType::One,
        PaddingType::Random,
        PaddingType::InputBased,
        PaddingType::DatasetBased,
        PaddingType::MemoryBased,
        PaddingType::Learned,
    ];

    /// Display name (paper's abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            PaddingType::Zero => "zero",
            PaddingType::One => "one",
            PaddingType::Random => "rand",
            PaddingType::InputBased => "IB",
            PaddingType::DatasetBased => "DB",
            PaddingType::MemoryBased => "MB",
            PaddingType::Learned => "LB",
        }
    }
}

/// Stateful padder: tracks dataset/memory bit statistics and (for the
/// learned type) owns the LSTM generator.
#[derive(Debug)]
pub struct Padder {
    location: PaddingLocation,
    ptype: PaddingType,
    dataset_ones: u64,
    dataset_bits: u64,
    memory_ones_ratio: f32,
    learned: Option<LearnedPadder>,
}

impl Padder {
    /// Create a padder. For [`PaddingType::Learned`], call
    /// [`Padder::train_learned`] before padding (an untrained padder
    /// falls back to dataset-based generation).
    pub fn new(location: PaddingLocation, ptype: PaddingType) -> Self {
        Self {
            location,
            ptype,
            dataset_ones: 0,
            dataset_bits: 0,
            memory_ones_ratio: 0.5,
            learned: None,
        }
    }

    /// The configured location.
    pub fn location(&self) -> PaddingLocation {
        self.location
    }

    /// The configured type.
    pub fn padding_type(&self) -> PaddingType {
        self.ptype
    }

    /// Record one observed item (updates the dataset distribution used
    /// by [`PaddingType::DatasetBased`]).
    pub fn observe(&mut self, data: &[u8]) {
        self.dataset_ones += e2nvm_sim::bitops::popcount(data);
        self.dataset_bits += (data.len() * 8) as u64;
    }

    /// Set the resident-memory ones ratio used by
    /// [`PaddingType::MemoryBased`] (computed from a pool snapshot).
    pub fn set_memory_ratio(&mut self, ratio: f32) {
        self.memory_ones_ratio = ratio.clamp(0.0, 1.0);
    }

    /// Train the learned (LSTM) generator on resident memory contents.
    pub fn train_learned<R: Rng>(
        &mut self,
        segments: &[impl AsRef<[u8]>],
        epochs: usize,
        rng: &mut R,
    ) {
        let mut padder = LearnedPadder::new(rng);
        padder.train(segments, epochs, rng);
        self.learned = Some(padder);
    }

    /// Whether the learned generator has been trained.
    pub fn is_learned_ready(&self) -> bool {
        self.learned.is_some()
    }

    /// Pad `data` to exactly `target_bits` bit-features for the model.
    /// Returns the feature vector; stored bytes are unaffected (padding
    /// is prediction-only).
    ///
    /// # Panics
    /// Panics if `data` is longer than `target_bits` allows.
    pub fn pad<R: Rng>(&self, data: &[u8], target_bits: usize, rng: &mut R) -> Vec<f32> {
        let data_bits = bytes_to_features(data);
        assert!(
            data_bits.len() <= target_bits,
            "pad: data ({} bits) exceeds model input ({target_bits} bits)",
            data_bits.len()
        );
        let q = target_bits - data_bits.len();
        if q == 0 {
            return data_bits;
        }
        let pad_bits = self.generate(data, &data_bits, q, rng);
        debug_assert_eq!(pad_bits.len(), q);
        let mut out = Vec::with_capacity(target_bits);
        match self.location {
            PaddingLocation::Beginning => {
                out.extend_from_slice(&pad_bits);
                out.extend_from_slice(&data_bits);
            }
            PaddingLocation::End => {
                out.extend_from_slice(&data_bits);
                out.extend_from_slice(&pad_bits);
            }
            PaddingLocation::Middle => {
                let half = q / 2;
                out.extend_from_slice(&pad_bits[..half]);
                out.extend_from_slice(&data_bits);
                out.extend_from_slice(&pad_bits[half..]);
            }
        }
        out
    }

    fn generate<R: Rng>(&self, data: &[u8], data_bits: &[f32], q: usize, rng: &mut R) -> Vec<f32> {
        match self.ptype {
            PaddingType::Zero => vec![0.0; q],
            PaddingType::One => vec![1.0; q],
            PaddingType::Random => (0..q).map(|_| f32::from(rng.gen::<bool>())).collect(),
            PaddingType::InputBased => {
                let ones: f32 = data_bits.iter().sum();
                let p = if data_bits.is_empty() {
                    0.5
                } else {
                    ones / data_bits.len() as f32
                };
                bernoulli(p, q, rng)
            }
            PaddingType::DatasetBased => {
                let p = if self.dataset_bits == 0 {
                    0.5
                } else {
                    self.dataset_ones as f32 / self.dataset_bits as f32
                };
                bernoulli(p, q, rng)
            }
            PaddingType::MemoryBased => bernoulli(self.memory_ones_ratio, q, rng),
            PaddingType::Learned => match &self.learned {
                Some(padder) => padder.generate(data, q),
                // Untrained learned padder: degrade gracefully to the
                // dataset distribution rather than panic mid-workload.
                None => {
                    let p = if self.dataset_bits == 0 {
                        0.5
                    } else {
                        self.dataset_ones as f32 / self.dataset_bits as f32
                    };
                    bernoulli(p, q, rng)
                }
            },
        }
    }
}

fn bernoulli<R: Rng>(p: f32, q: usize, rng: &mut R) -> Vec<f32> {
    (0..q).map(|_| f32::from(rng.gen::<f32>() < p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;

    #[test]
    fn exact_size_passthrough() {
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let mut rng = seeded(1);
        let out = padder.pad(&[0xFF], 8, &mut rng);
        assert_eq!(out, vec![1.0f32; 8]);
    }

    #[test]
    fn locations_place_data_correctly() {
        let mut rng = seeded(2);
        let data = [0xFFu8]; // 8 one-bits
        for (loc, data_range) in [
            (PaddingLocation::Beginning, 8..16),
            (PaddingLocation::End, 0..8),
            (PaddingLocation::Middle, 4..12),
        ] {
            let padder = Padder::new(loc, PaddingType::Zero);
            let out = padder.pad(&data, 16, &mut rng);
            assert_eq!(out.len(), 16);
            for (i, v) in out.iter().enumerate() {
                let expect = if data_range.contains(&i) { 1.0 } else { 0.0 };
                assert_eq!(*v, expect, "{}: bit {i}", loc.name());
            }
        }
    }

    #[test]
    fn zero_one_random_types() {
        let mut rng = seeded(3);
        let data = [0x0Fu8];
        let zero = Padder::new(PaddingLocation::End, PaddingType::Zero).pad(&data, 32, &mut rng);
        assert!(zero[8..].iter().all(|&v| v == 0.0));
        let one = Padder::new(PaddingLocation::End, PaddingType::One).pad(&data, 32, &mut rng);
        assert!(one[8..].iter().all(|&v| v == 1.0));
        let rand = Padder::new(PaddingLocation::End, PaddingType::Random).pad(&data, 512, &mut rng);
        let ones: f32 = rand[8..].iter().sum();
        assert!((ones / 504.0 - 0.5).abs() < 0.1, "random not balanced");
    }

    #[test]
    fn input_based_matches_input_distribution() {
        let mut rng = seeded(4);
        // Input 25% ones, like the paper's d1 = [0,0,0,1] example.
        let data = [0b0001_0001u8, 0b0000_0000];
        let padder = Padder::new(PaddingLocation::End, PaddingType::InputBased);
        let out = padder.pad(&data, 16 + 4096, &mut rng);
        let p = out[16..].iter().sum::<f32>() / 4096.0;
        assert!((p - 2.0 / 16.0).abs() < 0.03, "p={p}");
    }

    #[test]
    fn dataset_based_tracks_observations() {
        let mut rng = seeded(5);
        let mut padder = Padder::new(PaddingLocation::End, PaddingType::DatasetBased);
        // Observe 75%-ones data.
        padder.observe(&[0xFF, 0xFF, 0xFF, 0x00]);
        let out = padder.pad(&[0x00], 8 + 4096, &mut rng);
        let p = out[8..].iter().sum::<f32>() / 4096.0;
        assert!((p - 0.75).abs() < 0.03, "p={p}");
    }

    #[test]
    fn memory_based_uses_set_ratio() {
        let mut rng = seeded(6);
        let mut padder = Padder::new(PaddingLocation::End, PaddingType::MemoryBased);
        padder.set_memory_ratio(0.9);
        let out = padder.pad(&[0x00], 8 + 4096, &mut rng);
        let p = out[8..].iter().sum::<f32>() / 4096.0;
        assert!((p - 0.9).abs() < 0.03, "p={p}");
    }

    #[test]
    fn untrained_learned_falls_back() {
        let mut rng = seeded(7);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Learned);
        assert!(!padder.is_learned_ready());
        let out = padder.pad(&[0xAA], 64, &mut rng);
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    #[should_panic(expected = "exceeds model input")]
    fn oversized_data_panics() {
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let mut rng = seeded(8);
        padder.pad(&[0u8; 10], 8, &mut rng);
    }

    #[test]
    fn all_enums_have_unique_names() {
        let names: std::collections::HashSet<_> =
            PaddingType::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 7);
        let locs: std::collections::HashSet<_> =
            PaddingLocation::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(locs.len(), 3);
    }
}
