//! A single dense (affine + activation) layer with exact gradients.
//!
//! Implements Equation 1 of the paper, `t(x) = S(W·x + b)`, batched over the
//! rows of a [`Matrix`]. Weights are stored `in × out` so the forward pass is
//! a plain `X·W` and no transposes are materialized anywhere in training.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Error, Map, Serialize, Value};

/// A dense layer `y = act(x·W + b)` with gradient accumulators.
///
/// Serializes its parameters only (`w`, `b`, `act`): the gradient
/// accumulators are scratch that training zeroes before every batch, so
/// deserialization rebuilds them as zeros shaped like `w`/`b`. Documents
/// that still carry `gw`/`gb` load unchanged (extra keys are ignored).
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Elementwise nonlinearity.
    pub act: Activation,
    /// Accumulated weight gradient (same shape as `w`).
    pub gw: Matrix,
    /// Accumulated bias gradient (same length as `b`).
    pub gb: Vec<f32>,
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, init: Init, rng: &mut impl Rng) -> Self {
        Dense::from_params(init.matrix(in_dim, out_dim, rng), vec![0.0; out_dim], act)
    }

    /// A layer over the given parameters (`b.len() == w.cols()`) with
    /// zeroed gradient accumulators.
    fn from_params(w: Matrix, b: Vec<f32>, act: Activation) -> Self {
        let gw = Matrix::zeros(w.rows(), w.cols());
        let gb = vec![0.0; b.len()];
        Dense { w, b, act, gw, gb }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass returning `(pre_activation, activation)`.
    ///
    /// The pre-activation is needed by [`Dense::backward`]; use
    /// [`Dense::forward`] when gradients are not required.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut z = x.matmul(&self.w);
        z.add_row_inplace(&self.b);
        let mut a = z.clone();
        let act = self.act;
        if act != Activation::Identity {
            a.map_inplace(|v| act.apply(v));
        }
        (z, a)
    }

    /// Forward pass returning only the activation.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_inplace(&self.b);
        let act = self.act;
        if act != Activation::Identity {
            z.map_inplace(|v| act.apply(v));
        }
        z
    }

    /// Inference-only forward pass into a preallocated output
    /// (`x.rows × out_dim`, overwritten). The allocation-free twin of
    /// [`Dense::forward`] used by the serving hot path: gemm, bias and
    /// activation are fused into one pass over the output.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        let act = self.act;
        if act == Activation::Identity {
            x.matmul_bias_act_into(&self.w, &self.b, |v| v, out);
        } else {
            x.matmul_bias_act_into(&self.w, &self.b, |v| act.apply(v), out);
        }
    }

    /// Backward pass.
    ///
    /// Given the layer input `x`, the cached pre-activation `z` and the
    /// gradient `d_out` of the loss w.r.t. this layer's *activation*,
    /// accumulates `gw`/`gb` and returns the gradient w.r.t. `x`.
    pub fn backward(&mut self, x: &Matrix, z: &Matrix, d_out: &Matrix) -> Matrix {
        debug_assert_eq!(d_out.rows(), x.rows());
        debug_assert_eq!(d_out.cols(), self.out_dim());
        // dZ = d_out ⊙ act'(z)
        let mut dz = d_out.clone();
        if self.act != Activation::Identity {
            let act = self.act;
            for (dv, &zv) in dz.as_mut_slice().iter_mut().zip(z.as_slice()) {
                *dv *= act.derivative(zv);
            }
        }
        // dW += Xᵀ·dZ ; db += colsum(dZ) ; dX = dZ·Wᵀ
        x.matmul_at_b_into(&dz, &mut self.gw);
        dz.col_sum_into(&mut self.gb);
        dz.matmul_a_bt(&self.w)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gb.fill(0.0);
    }

    /// Scales accumulated gradients (used for batch-size normalization).
    pub fn scale_grad(&mut self, s: f32) {
        self.gw.scale_inplace(s);
        for g in &mut self.gb {
            *g *= s;
        }
    }
}

impl Serialize for Dense {
    fn ser_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("w".into(), self.w.ser_value());
        m.insert("b".into(), self.b.ser_value());
        m.insert("act".into(), self.act.ser_value());
        Value::Object(m)
    }
}

impl Deserialize for Dense {
    fn de_value(v: &Value) -> Result<Dense, Error> {
        let m = v.as_object().ok_or_else(|| Error::custom("expected object for `Dense`"))?;
        let w: Matrix = de_field(m, "w", "Dense")?;
        let b: Vec<f32> = de_field(m, "b", "Dense")?;
        if b.len() != w.cols() {
            return Err(Error::custom("`Dense` bias length does not match the weight columns"));
        }
        Ok(Dense::from_params(w, b, de_field(m, "act", "Dense")?))
    }
}

/// Reads field `name` of a `ty` object the way the derive does: missing
/// is an error, unknown keys elsewhere in `m` are ignored.
pub(crate) fn de_field<T: Deserialize>(m: &Map, name: &str, ty: &str) -> Result<T, Error> {
    match m.get(name) {
        Some(x) => T::de_value(x),
        None => Err(Error::custom(format!("missing field `{name}` in `{ty}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        Dense::new(4, 3, Activation::Relu, Init::He, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer();
        let x = Matrix::zeros(5, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn forward_matches_manual_single_row() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let l = Dense::new(2, 2, Activation::Identity, Init::Xavier, &mut rng);
        let x = Matrix::from_row(&[1.0, -2.0]);
        let y = l.forward(&x);
        let want0 = l.w.get(0, 0) * 1.0 + l.w.get(1, 0) * -2.0 + l.b[0];
        let want1 = l.w.get(0, 1) * 1.0 + l.w.get(1, 1) * -2.0 + l.b[1];
        assert!((y.get(0, 0) - want0).abs() < 1e-6);
        assert!((y.get(0, 1) - want1).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut l = layer();
        let x = Matrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.3 - 0.5);
        let (z, a) = l.forward_cached(&x);
        let d = Matrix::from_fn(2, 3, |_, _| 1.0);
        let _ = l.backward(&x, &z, &d);
        assert!(l.gw.norm() > 0.0 || a.norm() == 0.0);
        l.zero_grad();
        assert_eq!(l.gw.norm(), 0.0);
        assert!(l.gb.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn serde_writes_parameters_only_and_rebuilds_zeroed_grads() {
        let mut l = layer();
        let x = Matrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.3 - 0.5);
        let (z, _) = l.forward_cached(&x);
        let _ = l.backward(&x, &z, &Matrix::from_fn(2, 3, |_, _| 1.0));
        let v = l.ser_value();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["act", "b", "w"]);
        let back = Dense::de_value(&v).unwrap();
        assert_eq!((back.w.clone(), back.b.clone(), back.act), (l.w.clone(), l.b.clone(), l.act));
        assert_eq!(back.gw, Matrix::zeros(4, 3));
        assert_eq!(back.gb, vec![0.0; 3]);
    }

    #[test]
    fn serde_loads_documents_that_carry_grads() {
        let l = layer();
        let mut v = l.ser_value();
        let m = v.as_object_mut().unwrap();
        m.insert("gw".into(), Matrix::from_fn(4, 3, |_, _| 7.0).ser_value());
        m.insert("gb".into(), vec![7.0f32; 3].ser_value());
        let back = Dense::de_value(&v).unwrap();
        assert_eq!(back.w, l.w);
        assert_eq!(back.gw, Matrix::zeros(4, 3));
        assert_eq!(back.gb, vec![0.0; 3]);
    }

    #[test]
    fn serde_rejects_mismatched_bias() {
        let mut v = layer().ser_value();
        v.as_object_mut().unwrap().insert("b".into(), vec![0.0f32; 2].ser_value());
        assert!(Dense::de_value(&v).is_err());
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut l = layer();
        let x = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let (z, _a) = l.forward_cached(&x);
        let d = Matrix::from_fn(2, 3, |_, _| 0.5);
        let _ = l.backward(&x, &z, &d);
        let once = l.gw.clone();
        let _ = l.backward(&x, &z, &d);
        let mut twice = once.clone();
        twice.scale_inplace(2.0);
        for (a, b) in l.gw.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
