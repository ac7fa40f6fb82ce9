//! A sequential stack of [`Dense`] layers.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::matrix::Matrix;
use rand::Rng;

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build from a layer-size list `dims` (e.g. `[784, 256, 20]`) with
    /// `hidden_act` on all but the last layer and `out_act` on the last.
    ///
    /// # Panics
    /// Panics if `dims` has fewer than two entries.
    pub fn new<R: Rng>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        lr: f32,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let act = if i + 2 == dims.len() {
                    out_act
                } else {
                    hidden_act
                };
                Dense::new(pair[0], pair[1], act, lr, rng)
            })
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("Mlp has layers").in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("Mlp has layers").out_dim()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Multiply-accumulates of one forward pass over `n` rows.
    pub fn forward_macs(&self, n: usize) -> u64 {
        self.layers.iter().map(|l| l.forward_macs(n)).sum()
    }

    /// Forward with caches (training path).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.layers
            .iter_mut()
            .fold(x.clone(), |h, layer| layer.forward(&h))
    }

    /// Forward without caches (serving path). The first layer reads `x`
    /// in place; only layer outputs are allocated.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("Mlp has layers");
        rest.iter().fold(first.forward_inference(x), |h, layer| {
            layer.forward_inference(&h)
        })
    }

    /// Backward from the gradient w.r.t. the network *output*.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let mut grad = d_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Backward where the last layer receives a *pre-activation*
    /// gradient (fused loss+activation), earlier layers the usual chain.
    pub fn backward_preact_last(&mut self, dz_last: &Matrix) -> Matrix {
        let mut iter = self.layers.iter_mut().rev();
        let last = iter.next().expect("Mlp has layers");
        let mut grad = last.backward_preact(dz_last);
        for layer in iter {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Adam step on every layer.
    pub fn step(&mut self) {
        for layer in &mut self.layers {
            layer.step();
        }
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// The layer stack (diagnostics/persistence).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Rebuild from persisted layers, validating that adjacent layer
    /// dimensions chain.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("Mlp::from_layers: no layers".into());
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(format!(
                    "Mlp::from_layers: layer widths do not chain ({} -> {})",
                    pair[0].out_dim(),
                    pair[1].in_dim()
                ));
            }
        }
        Ok(Self { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn shapes_chain() {
        let mut rng = seeded(1);
        let mlp = Mlp::new(
            &[8, 4, 2],
            Activation::Relu,
            Activation::Linear,
            0.01,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.param_count(), 8 * 4 + 4 + 4 * 2 + 2);
        let y = mlp.forward_inference(&Matrix::zeros(3, 8));
        assert_eq!((y.rows(), y.cols()), (3, 2));
    }

    #[test]
    fn learns_xor() {
        // XOR is the canonical non-linear sanity check.
        let mut rng = seeded(7);
        let mut mlp = Mlp::new(
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
            0.05,
            &mut rng,
        );
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let t = [0.0f32, 1.0, 1.0, 0.0];
        for _ in 0..800 {
            let y = mlp.forward(&x);
            // Fused sigmoid+BCE gradient: dz = y - t.
            let dz = Matrix::from_fn(4, 1, |r, _| y.get(r, 0) - t[r]);
            mlp.backward_preact_last(&dz);
            mlp.step();
        }
        let y = mlp.forward_inference(&x);
        for (r, &target) in t.iter().enumerate() {
            let out = y.get(r, 0);
            assert!(
                (out - target).abs() < 0.2,
                "xor row {r}: out={out} target={target}"
            );
        }
    }

    #[test]
    fn inference_matches_forward() {
        let mut rng = seeded(3);
        let mut mlp = Mlp::new(
            &[4, 3, 2],
            Activation::Relu,
            Activation::Sigmoid,
            0.01,
            &mut rng,
        );
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        let a = mlp.forward(&x);
        let b = mlp.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_rejected() {
        let mut rng = seeded(1);
        Mlp::new(&[4], Activation::Relu, Activation::Linear, 0.01, &mut rng);
    }
}
