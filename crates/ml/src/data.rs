//! Data plumbing: bytes → bit features, train/validation splits, and
//! simple feature matrices from memory-segment snapshots.

use crate::matrix::Matrix;
use rand::Rng;

/// Convert one byte buffer into f32 bit features (MSB-first per byte),
/// one feature per bit — the encoding the paper describes in §3.2
/// ("Each memory location is encoded as a vector of bits, each of which
/// is used as a feature/dimension").
pub fn bytes_to_features(bytes: &[u8]) -> Vec<f32> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for shift in (0..8).rev() {
            out.push(((b >> shift) & 1) as f32);
        }
    }
    out
}

/// Stack many equal-length byte buffers into an `n × (len*8)` feature
/// matrix (the paper's "(n, m) 2D tensor").
///
/// # Panics
/// Panics if buffers have differing lengths or the input is empty.
pub fn segments_to_matrix(segments: &[impl AsRef<[u8]>]) -> Matrix {
    assert!(!segments.is_empty(), "segments_to_matrix: empty input");
    let len = segments[0].as_ref().len();
    let mut data = Vec::with_capacity(segments.len() * len * 8);
    for s in segments {
        let s = s.as_ref();
        assert_eq!(s.len(), len, "segments_to_matrix: ragged segments");
        data.extend(bytes_to_features(s));
    }
    Matrix::from_vec(segments.len(), len * 8, data)
}

/// Shuffled train/validation split: `val_frac` of rows go to the
/// validation matrix.
pub fn train_val_split<R: Rng>(data: &Matrix, val_frac: f32, rng: &mut R) -> (Matrix, Matrix) {
    assert!((0.0..1.0).contains(&val_frac), "val_frac must be in [0,1)");
    let n = data.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    let n_val = ((n as f32) * val_frac).round() as usize;
    let (val_idx, train_idx) = idx.split_at(n_val.min(n));
    (data.select_rows(train_idx), data.select_rows(val_idx))
}

/// Draw at most `max_rows` of the row indices `0..n` uniformly without
/// replacement (used to bound training-set size on large pools). The
/// caller featurises only the drawn rows, so a large pool never exists
/// as one feature matrix. Returns `0..n` in order, with no draws, when
/// `n <= max_rows`.
pub fn sample_indices<R: Rng>(n: usize, max_rows: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if n <= max_rows {
        return idx;
    }
    for i in 0..max_rows {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(max_rows);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn bit_features_msb_first() {
        let f = bytes_to_features(&[0b1010_0000]);
        assert_eq!(f, vec![1., 0., 1., 0., 0., 0., 0., 0.]);
    }

    #[test]
    fn matrix_from_segments() {
        let m = segments_to_matrix(&[[0xFFu8], [0x00u8]]);
        assert_eq!((m.rows(), m.cols()), (2, 8));
        assert_eq!(m.row(0), &[1.0f32; 8]);
        assert_eq!(m.row(1), &[0.0f32; 8]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_segments_rejected() {
        let a: &[u8] = &[1];
        let b: &[u8] = &[1, 2];
        segments_to_matrix(&[a, b]);
    }

    #[test]
    fn split_partitions_rows() {
        let mut rng = seeded(1);
        let data = Matrix::from_fn(100, 4, |r, _| r as f32);
        let (train, val) = train_val_split(&data, 0.2, &mut rng);
        assert_eq!(train.rows(), 80);
        assert_eq!(val.rows(), 20);
        // Every original row id appears exactly once across both.
        let mut seen: Vec<f32> = train
            .as_slice()
            .iter()
            .chain(val.as_slice())
            .copied()
            .collect::<Vec<_>>()
            .chunks(4)
            .map(|c| c[0])
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f32> = (0..100).map(|v| v as f32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn sample_bounds_rows() {
        let mut rng = seeded(2);
        let s = sample_indices(50, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let t = sample_indices(50, 100, &mut rng);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn sample_has_no_duplicates() {
        let mut rng = seeded(3);
        let mut vals = sample_indices(30, 20, &mut rng);
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 20);
    }

    #[test]
    fn sample_below_cap_keeps_order_and_draws_nothing() {
        let mut rng = seeded(4);
        assert_eq!(sample_indices(5, 5, &mut rng), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_indices(0, 3, &mut rng), Vec::<usize>::new());
        // No draws were made: the stream continues where a fresh one starts.
        assert_eq!(rng.gen::<u64>(), seeded(4).gen::<u64>());
    }
}
