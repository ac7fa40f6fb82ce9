//! Learned padding (paper §4.1.3): an LSTM with a sliding window that
//! "takes as input 64 bits and predicts 8 bits in a single step", then
//! slides by 8 bits to generate as many padding bits as needed.
//!
//! The window is fed to the LSTM as 8 timesteps of 8 bits each; the
//! dense sigmoid head emits the next byte's 8 bit probabilities, which
//! are thresholded at 0.5.

use e2nvm_ml::matrix::Matrix;
use e2nvm_ml::{Lstm, LstmConfig};
use rand::Rng;

/// Window size in bits (paper Figure 6).
pub const WINDOW_BITS: usize = 64;
/// Bits predicted per step (paper Figure 6).
pub const STEP_BITS: usize = 8;

const WINDOW_STEPS: usize = WINDOW_BITS / STEP_BITS;

/// The sliding-window LSTM padding generator.
#[derive(Debug)]
pub struct LearnedPadder {
    lstm: Lstm,
}

impl LearnedPadder {
    /// A fresh, untrained generator.
    pub fn new<R: Rng>(rng: &mut R) -> Self {
        Self {
            lstm: Lstm::new(
                LstmConfig {
                    input_dim: STEP_BITS,
                    hidden: 24,
                    output_dim: STEP_BITS,
                    lr: 1e-2,
                },
                rng,
            ),
        }
    }

    /// Train on resident memory contents: every 72-bit window of every
    /// segment yields one (64-bit input → next 8 bits) example.
    pub fn train<R: Rng>(&mut self, segments: &[impl AsRef<[u8]>], epochs: usize, rng: &mut R) {
        // Collect (window, next-byte) examples at byte granularity.
        let mut windows: Vec<(&[u8], u8)> = Vec::new();
        for seg in segments {
            let seg = seg.as_ref();
            if seg.len() <= WINDOW_BITS / 8 {
                continue;
            }
            for start in 0..seg.len() - WINDOW_BITS / 8 {
                windows.push((
                    &seg[start..start + WINDOW_BITS / 8],
                    seg[start + WINDOW_BITS / 8],
                ));
            }
        }
        if windows.is_empty() {
            return;
        }
        // Cap the training set to keep retraining cheap.
        const CAP: usize = 2048;
        if windows.len() > CAP {
            for i in 0..CAP {
                let j = rng.gen_range(i..windows.len());
                windows.swap(i, j);
            }
            windows.truncate(CAP);
        }
        let batch = 64usize;
        for _ in 0..epochs.max(1) {
            for chunk in windows.chunks(batch) {
                let seq = Self::windows_to_sequence(chunk.iter().map(|(w, _)| *w));
                let targets = Matrix::from_fn(chunk.len(), STEP_BITS, |r, c| {
                    ((chunk[r].1 >> (7 - c)) & 1) as f32
                });
                self.lstm.train_batch(&seq, &targets);
            }
        }
    }

    fn windows_to_sequence<'a>(windows: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<Matrix> {
        let rows: Vec<&[u8]> = windows.collect();
        (0..WINDOW_STEPS)
            .map(|step| {
                Matrix::from_fn(rows.len(), STEP_BITS, |r, c| {
                    ((rows[r][step] >> (7 - c)) & 1) as f32
                })
            })
            .collect()
    }

    /// Generate `q` padding bits (0.0/1.0) conditioned on `data`.
    ///
    /// The window is seeded with the last 8 bytes of `data` (cycled if
    /// the value is shorter) and slides by one predicted byte per step.
    pub fn generate(&self, data: &[u8], q: usize) -> Vec<f32> {
        let mut window = [0u8; WINDOW_BITS / 8];
        if data.is_empty() {
            // Nothing to condition on: a zero window.
        } else if data.len() >= WINDOW_BITS / 8 {
            window.copy_from_slice(&data[data.len() - WINDOW_BITS / 8..]);
        } else {
            // Cycle the short value to fill the window.
            for (i, w) in window.iter_mut().enumerate() {
                *w = data[i % data.len()];
            }
        }
        let mut out = Vec::with_capacity(q);
        while out.len() < q {
            let seq = Self::windows_to_sequence(std::iter::once(&window[..]));
            let pred = self.lstm.predict(&seq);
            let mut byte = 0u8;
            for c in 0..STEP_BITS {
                let bit = pred.get(0, c) > 0.5;
                byte = (byte << 1) | u8::from(bit);
                if out.len() < q {
                    out.push(f32::from(bit));
                }
            }
            // Slide the window by one byte.
            window.rotate_left(1);
            window[WINDOW_BITS / 8 - 1] = byte;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;

    #[test]
    fn generates_requested_length() {
        let mut rng = seeded(1);
        let padder = LearnedPadder::new(&mut rng);
        for q in [1, 7, 8, 9, 64, 100] {
            let out = padder.generate(&[0xAB, 0xCD], q);
            assert_eq!(out.len(), q);
            assert!(out.iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn learns_constant_continuation() {
        // Memory full of all-ones segments: the LSTM must learn that
        // the next byte after any window is 0xFF.
        let mut rng = seeded(2);
        let segments: Vec<Vec<u8>> = (0..8).map(|_| vec![0xFFu8; 24]).collect();
        let mut padder = LearnedPadder::new(&mut rng);
        padder.train(&segments, 30, &mut rng);
        let out = padder.generate(&[0xFFu8; 8], 32);
        let ones: f32 = out.iter().sum();
        assert!(ones >= 30.0, "expected ~all ones, got {ones}/32");
    }

    #[test]
    fn learns_alternating_pattern() {
        // Segments alternate 0x00/0xFF bytes; after a window ending in
        // 0xFF the next byte is 0x00 and vice versa.
        let mut rng = seeded(3);
        let segments: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                (0..32)
                    .map(|i| if i % 2 == 0 { 0x00 } else { 0xFF })
                    .collect()
            })
            .collect();
        let mut padder = LearnedPadder::new(&mut rng);
        padder.train(&segments, 60, &mut rng);
        // Window ends ... 0x00 0xFF -> next byte should be 0x00.
        let data: Vec<u8> = (0..8)
            .map(|i| if i % 2 == 0 { 0x00 } else { 0xFF })
            .collect();
        let out = padder.generate(&data, 16);
        let first_byte_ones: f32 = out[..8].iter().sum();
        let second_byte_ones: f32 = out[8..16].iter().sum();
        assert!(
            first_byte_ones <= 2.0 && second_byte_ones >= 6.0,
            "pattern not learned: {out:?}"
        );
    }

    #[test]
    fn short_and_empty_values_handled() {
        let mut rng = seeded(4);
        let padder = LearnedPadder::new(&mut rng);
        assert_eq!(padder.generate(&[], 8).len(), 8);
        assert_eq!(padder.generate(&[0x01], 8).len(), 8);
    }

    #[test]
    fn training_on_tiny_segments_is_safe() {
        let mut rng = seeded(5);
        let mut padder = LearnedPadder::new(&mut rng);
        // Segments not longer than the window: no examples, no panic.
        padder.train(&[vec![0u8; 8], vec![1u8; 4]], 5, &mut rng);
        assert_eq!(padder.generate(&[0u8; 4], 16).len(), 16);
    }
}
