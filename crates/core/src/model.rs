//! The E2-NVM model: a trained VAE encoder + K-means centroids, with
//! byte-level prediction helpers that route values through the padder.

use crate::config::E2Config;
use crate::padding::Padder;
use e2nvm_ml::data::{sample_indices, segments_to_matrix, train_val_split};
use e2nvm_ml::persist::{Persist, PersistError, Reader, Writer};
use e2nvm_ml::{ClusterModel, Matrix, TrainingHistory};
use rand::Rng;

/// Rows featurised per [`E2Model::classify_segments`] block. A fixed
/// constant, not a config field: prediction is row-independent, so the
/// block size changes only the transient feature buffer
/// (`CLASSIFY_BLOCK × input_bits` f32s), never an assignment.
const CLASSIFY_BLOCK: usize = 256;

/// A trained placement model.
#[derive(Debug, Clone)]
pub struct E2Model {
    cluster: ClusterModel,
    input_bits: usize,
    history: TrainingHistory,
}

impl E2Model {
    /// Train on a snapshot of memory-segment contents. Honors the
    /// config's `train_sample_cap` and holds out 10 % for validation
    /// loss curves. The sample's rows are drawn before any featurising,
    /// so only the (at most `train_sample_cap`) sampled segments are
    /// ever expanded into f32 bit features.
    ///
    /// # Panics
    /// Panics if `contents` is empty or segment sizes disagree with the
    /// config.
    pub fn train<R: Rng>(cfg: &E2Config, contents: &[impl AsRef<[u8]>], rng: &mut R) -> Self {
        assert!(!contents.is_empty(), "E2Model::train: no training data");
        assert!(
            contents
                .iter()
                .all(|c| c.as_ref().len() == cfg.segment_bytes),
            "E2Model::train: contents must be whole segments"
        );
        let sampled: Vec<&[u8]> = sample_indices(contents.len(), cfg.train_sample_cap, rng)
            .into_iter()
            .map(|i| contents[i].as_ref())
            .collect();
        let capped = segments_to_matrix(&sampled);
        let (train, val) = train_val_split(&capped, 0.1, rng);
        let val_opt: Option<&Matrix> = (val.rows() > 0).then_some(&val);
        let (cluster, history) = ClusterModel::train(&cfg.dec_config(), &train, val_opt, rng);
        Self {
            cluster,
            input_bits: cfg.input_bits(),
            history,
        }
    }

    /// Predict the cluster for a (padded) feature vector.
    pub fn predict_features(&self, features: &[f32]) -> usize {
        debug_assert_eq!(features.len(), self.input_bits);
        self.cluster.predict(features)
    }

    /// Pad a value and predict its cluster (Algorithm 1, step 1).
    pub fn predict_value<R: Rng>(&self, value: &[u8], padder: &Padder, rng: &mut R) -> usize {
        let features = padder.pad(value, self.input_bits, rng);
        self.cluster.predict(&features)
    }

    /// Pad a value and return the clusters in nearest-first order — the
    /// order the DAP uses for fallback.
    pub fn cluster_order<R: Rng>(&self, value: &[u8], padder: &Padder, rng: &mut R) -> Vec<usize> {
        let features = padder.pad(value, self.input_bits, rng);
        self.cluster.clusters_by_distance(&features)
    }

    /// Classify whole segments (no padding needed), featurising
    /// `CLASSIFY_BLOCK` (256) rows at a time.
    pub fn classify_segments(&self, contents: &[impl AsRef<[u8]>]) -> Vec<usize> {
        let mut out = Vec::with_capacity(contents.len());
        for block in contents.chunks(CLASSIFY_BLOCK) {
            out.extend(self.cluster.predict_batch(&segments_to_matrix(block)));
        }
        out
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.cluster.k()
    }

    /// Model input width in bit-features.
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// Training history (loss curves for Figure 9).
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// Multiply-accumulates per prediction (CPU-energy model input).
    pub fn predict_macs(&self) -> u64 {
        self.cluster.predict_macs()
    }

    /// Multiply-accumulates for one retraining epoch on `n` samples.
    pub fn train_macs_per_epoch(&self, n: usize) -> u64 {
        self.cluster.vae().train_macs_per_epoch(n)
    }

    /// Serialize the serving artifact (encoder + centroids + input
    /// width). The training history is not persisted — a loaded model
    /// serves predictions.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.u64(self.input_bits as u64);
        Persist::encode(&self.cluster, &mut w);
        w.into_bytes()
    }

    /// Deserialize a model previously produced by [`E2Model::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::with_header(buf)?;
        let input_bits = r.u64()? as usize;
        let cluster = <ClusterModel as Persist>::decode(&mut r)?;
        if cluster.input_dim() != input_bits {
            return Err(PersistError::BadLength(input_bits as u64));
        }
        Ok(Self {
            cluster,
            input_bits,
            history: TrainingHistory::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::{PaddingLocation, PaddingType};
    use e2nvm_ml::rng::seeded;

    fn clustered_segments(n_per: usize, seg_bytes: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for cls in 0..2u8 {
            let base = if cls == 0 { 0x00 } else { 0xFF };
            for _ in 0..n_per {
                out.push(
                    (0..seg_bytes)
                        .map(|_| if rng.gen::<f32>() < 0.08 { !base } else { base })
                        .collect(),
                );
            }
        }
        out
    }

    fn quick_cfg() -> E2Config {
        E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(8)
            .joint_epochs(2)
            .build()
            .unwrap()
    }

    #[test]
    fn train_and_separate() {
        let mut rng = seeded(1);
        let contents = clustered_segments(40, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        assert_eq!(model.k(), 2);
        assert_eq!(model.input_bits(), 128);
        let assigns = model.classify_segments(&contents);
        // The two families must land in different clusters (majority).
        let zeros_cluster = assigns[..40].iter().fold([0usize; 2], |mut acc, &c| {
            acc[c] += 1;
            acc
        });
        let ones_cluster = assigns[40..].iter().fold([0usize; 2], |mut acc, &c| {
            acc[c] += 1;
            acc
        });
        let zmaj = if zeros_cluster[0] > zeros_cluster[1] {
            0
        } else {
            1
        };
        let omaj = if ones_cluster[0] > ones_cluster[1] {
            0
        } else {
            1
        };
        assert_ne!(zmaj, omaj, "families not separated");
    }

    #[test]
    fn padded_prediction_consistent_with_full() {
        let mut rng = seeded(2);
        let contents = clustered_segments(40, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        // A full-size mostly-zero value and a half-size one (zero-padded)
        // should map to the same cluster.
        let full = model.predict_value(&[0u8; 16], &padder, &mut rng);
        let half = model.predict_value(&[0u8; 8], &padder, &mut rng);
        assert_eq!(full, half);
    }

    #[test]
    fn cluster_order_starts_with_prediction() {
        let mut rng = seeded(3);
        let contents = clustered_segments(30, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let value = vec![0xFFu8; 16];
        let pred = model.predict_value(&value, &padder, &mut rng);
        let order = model.cluster_order(&value, &padder, &mut rng);
        assert_eq!(order[0], pred);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn persistence_roundtrip_preserves_predictions() {
        let mut rng = seeded(9);
        let contents = clustered_segments(30, 16, &mut rng);
        let model = E2Model::train(&quick_cfg(), &contents, &mut rng);
        let loaded = E2Model::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(loaded.k(), model.k());
        assert_eq!(loaded.input_bits(), model.input_bits());
        assert_eq!(
            loaded.classify_segments(&contents),
            model.classify_segments(&contents)
        );
    }

    #[test]
    fn history_recorded() {
        let mut rng = seeded(4);
        let contents = clustered_segments(30, 16, &mut rng);
        let cfg = quick_cfg();
        let model = E2Model::train(&cfg, &contents, &mut rng);
        assert_eq!(
            model.history().train.len(),
            cfg.pretrain_epochs + cfg.joint_epochs
        );
        assert!(!model.history().validation.is_empty());
    }

    /// The pre-sampling training path: featurise the whole pool, then
    /// subsample rows of the matrix.
    fn train_featurising_everything<R: Rng>(
        cfg: &E2Config,
        contents: &[Vec<u8>],
        rng: &mut R,
    ) -> E2Model {
        let all = segments_to_matrix(contents);
        let capped = if all.rows() <= cfg.train_sample_cap {
            all
        } else {
            let mut idx: Vec<usize> = (0..all.rows()).collect();
            for i in 0..cfg.train_sample_cap {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(cfg.train_sample_cap);
            all.select_rows(&idx)
        };
        let (train, val) = train_val_split(&capped, 0.1, rng);
        let val_opt: Option<&Matrix> = (val.rows() > 0).then_some(&val);
        let (cluster, history) = ClusterModel::train(&cfg.dec_config(), &train, val_opt, rng);
        E2Model {
            cluster,
            input_bits: cfg.input_bits(),
            history,
        }
    }

    #[test]
    fn sampling_before_featurising_trains_the_same_model() {
        let cap = 48;
        let cfg = E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(3)
            .joint_epochs(1)
            .train_sample_cap(cap)
            .build()
            .unwrap();
        for n_per in [cap / 4, cap / 2, cap] {
            // Pools of cap/2, cap and 2·cap segments.
            let contents = clustered_segments(n_per, 16, &mut seeded(20 + n_per as u64));
            let mut rng_new = seeded(5);
            let mut rng_old = seeded(5);
            let new = E2Model::train(&cfg, &contents, &mut rng_new);
            let old = train_featurising_everything(&cfg, &contents, &mut rng_old);
            assert_eq!(new.to_bytes(), old.to_bytes(), "pool {}", contents.len());
            assert_eq!(new.history().train, old.history().train);
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
        }
    }

    #[test]
    fn block_classification_equals_one_batch() {
        let mut rng = seeded(6);
        let b = CLASSIFY_BLOCK;
        let model = E2Model::train(
            &quick_cfg(),
            &clustered_segments(40, 16, &mut rng),
            &mut rng,
        );
        // Families interleaved at random, so every block mixes clusters.
        let pool: Vec<Vec<u8>> = (0..3 * b + 7)
            .map(|_| {
                let base = if rng.gen::<bool>() { 0x00u8 } else { 0xFF };
                (0..16)
                    .map(|_| if rng.gen::<f32>() < 0.2 { !base } else { base })
                    .collect()
            })
            .collect();
        for n in [0, 1, b - 1, b, b + 1, 3 * b + 7] {
            let contents = &pool[..n];
            let reference = if n == 0 {
                Vec::new()
            } else {
                model.cluster.predict_batch(&segments_to_matrix(contents))
            };
            assert_eq!(model.classify_segments(contents), reference, "n = {n}");
        }
        let all = model.classify_segments(&pool);
        assert!(all.contains(&0) && all.contains(&1), "degenerate model");
    }
}
