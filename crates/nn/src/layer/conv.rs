//! 2-D convolution layer.

use crate::module::{
    leaf_boilerplate, BackwardCtx, ForwardCtx, LayerKind, LayerMeta, Module, Param,
};
use rustfi_tensor::{
    conv2d_backward, conv2d_fused, conv2d_q_fused, Act, BnFoldView, ConvSpec, Im2colPlan,
    Im2rowPlan, QTensor, SeededRng, Tensor,
};

/// A 2-D convolution with learned weights and bias.
///
/// Weights are Kaiming-normal initialized (`std = sqrt(2 / fan_in)`), biases
/// start at zero. The layer runs forward hooks on its output — convolution
/// outputs are the "neurons" that fault injection targets.
pub struct Conv2d {
    pub(crate) meta: LayerMeta,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    /// Per-channel quantized weight cache for the INT8 backend; dropped
    /// whenever the f32 weights are handed out mutably.
    qweight: Option<QTensor>,
    /// Compiled-plan im2col gather map, built lazily for the input spatial
    /// shape the planned forward actually sees and rebuilt only when that
    /// shape changes. Pure geometry — weight faults never touch it.
    gather: Option<Im2colPlan>,
    /// INT8 twin of `gather` (transposed im2row destination layout). A
    /// layer holds at most one of the two: each backend's forward drops the
    /// other's map (INT8 calibration runs f32 forwards first).
    gather_q: Option<Im2rowPlan>,
}

impl Conv2d {
    /// Creates a convolution: `in_ch -> out_ch` with a square `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `in_ch` or `out_ch` is not divisible by `spec.groups`.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        spec: ConvSpec,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(
            spec.groups > 0
                && in_ch.is_multiple_of(spec.groups)
                && out_ch.is_multiple_of(spec.groups),
            "conv channels ({in_ch} -> {out_ch}) must be divisible by groups {}",
            spec.groups
        );
        let cg = in_ch / spec.groups;
        let fan_in = (cg * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::rand_normal(&[out_ch, cg, kernel, kernel], 0.0, std, rng);
        let bias = Tensor::zeros(&[out_ch]);
        Self {
            meta: LayerMeta::default(),
            grad_weight: Tensor::zeros(weight.dims()),
            grad_bias: Tensor::zeros(bias.dims()),
            weight,
            bias,
            spec,
            cached_input: None,
            qweight: None,
            gather: None,
            gather_q: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The weight tensor (`[out_ch, in_ch/groups, k, k]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Forward shared by the plain and fused paths: one call of the
    /// backend's conv kernel with the partner epilogue. Planned passes lower
    /// through the cached gather map and keep no activation cache (plans are
    /// inference-only; `backward` after a planned forward panics);
    /// unplanned passes lower on the fly and cache the input for `backward`.
    fn run(
        &mut self,
        input: &Tensor,
        ctx: &mut ForwardCtx<'_>,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Tensor {
        let planned = ctx.plan_active();
        if planned {
            self.cached_input = None;
        } else {
            rustfi_tensor::tpool::reuse_slot(&mut self.cached_input, input.dims())
                .data_mut()
                .copy_from_slice(input.data());
        }
        let &[_, _, h, w] = input.dims() else {
            panic!("conv input must be rank 4");
        };
        let &[_, cg, kh, kw] = self.weight.dims() else {
            unreachable!("conv weights are rank 4");
        };
        match ctx.input_scale(self.meta.id) {
            Some(scale) => {
                self.gather = None;
                if planned && !self.gather_q.as_ref().is_some_and(|p| p.matches(cg, h, w)) {
                    self.gather_q = Some(Im2rowPlan::build(cg, h, w, (kh, kw), &self.spec));
                }
                let plan = self.gather_q.as_ref().filter(|_| planned);
                let qw = self
                    .qweight
                    .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight));
                conv2d_q_fused(input, qw, plan, &self.bias, &self.spec, scale, bn, act)
            }
            None => {
                self.gather_q = None;
                if planned && !self.gather.as_ref().is_some_and(|p| p.matches(cg, h, w)) {
                    self.gather = Some(Im2colPlan::build(cg, h, w, (kh, kw), &self.spec));
                }
                let plan = self.gather.as_ref().filter(|_| planned);
                conv2d_fused(input, &self.weight, plan, &self.bias, &self.spec, bn, act)
            }
        }
    }
}

impl Module for Conv2d {
    leaf_boilerplate!();

    fn kind(&self) -> LayerKind {
        LayerKind::Conv2d
    }

    fn infer_dims(&self, input: &[usize]) -> Result<Vec<usize>, crate::shape::ShapeError> {
        let label = || crate::shape::layer_label(&self.meta, LayerKind::Conv2d);
        let &[n, c, h, w] = input else {
            return Err(crate::shape::ShapeError::WrongRank {
                layer: label(),
                expected: 4,
                got: input.to_vec(),
            });
        };
        let &[out_ch, cg, kh, _kw] = self.weight.dims() else {
            unreachable!("conv weights are rank 4");
        };
        let in_ch = cg * self.spec.groups;
        if c != in_ch {
            return Err(crate::shape::ShapeError::ChannelMismatch {
                layer: label(),
                expected: in_ch,
                got: c,
            });
        }
        let oh = self.spec.checked_out_size(h, kh).ok_or_else(|| {
            crate::shape::ShapeError::KernelTooLarge {
                layer: label(),
                kernel: kh,
                input: h,
            }
        })?;
        let ow = self.spec.checked_out_size(w, kh).ok_or_else(|| {
            crate::shape::ShapeError::KernelTooLarge {
                layer: label(),
                kernel: kh,
                input: w,
            }
        })?;
        Ok(vec![n, out_ch, oh, ow])
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let mut out = self.run(input, ctx, None, Act::None);
        ctx.run_forward_hooks(&self.meta, LayerKind::Conv2d, &mut out);
        out
    }

    fn forward_fused(
        &mut self,
        input: &Tensor,
        ctx: &mut ForwardCtx<'_>,
        bn: Option<BnFoldView<'_>>,
        act: Act,
    ) -> Option<Tensor> {
        if !ctx.plan_active() {
            return None;
        }
        Some(self.run(input, ctx, bn, act))
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &mut BackwardCtx<'_>) -> Tensor {
        ctx.run_grad_hooks(&self.meta, LayerKind::Conv2d, grad_out);
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let grads = conv2d_backward(input, &self.weight, grad_out, &self.spec);
        self.grad_weight.add_assign(&grads.weight);
        self.grad_bias.add_assign(&grads.bias);
        grads.input
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.qweight = None;
        f(Param {
            value: &mut self.weight,
            grad: &mut self.grad_weight,
        });
        f(Param {
            value: &mut self.bias,
            grad: &mut self.grad_bias,
        });
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.qweight = None;
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        self.qweight = None;
        Some(&mut self.weight)
    }

    fn bias_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.bias)
    }

    fn qweight_mut(&mut self) -> Option<&mut QTensor> {
        Some(
            self.qweight
                .get_or_insert_with(|| QTensor::quantize_per_channel(&self.weight)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::HookRegistry;
    use crate::module::Network;

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = SeededRng::new(2);
        let conv = Conv2d::new(3, 8, 3, ConvSpec::new().padding(1).stride(2), &mut rng);
        let mut net = Network::new(Box::new(conv));
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        assert_eq!(net.forward(&x), y, "inference is deterministic");
    }

    #[test]
    fn kaiming_init_scale() {
        let mut rng = SeededRng::new(3);
        let conv = Conv2d::new(16, 16, 3, ConvSpec::new(), &mut rng);
        let std_expect = (2.0f32 / (16.0 * 9.0)).sqrt();
        let w = conv.weight();
        let mean = w.mean();
        let var = w.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - std_expect).abs() < 0.02 * std_expect + 0.01);
    }

    #[test]
    fn hooks_see_conv_output() {
        let mut rng = SeededRng::new(4);
        let mut net = Network::new(Box::new(Conv2d::new(1, 1, 1, ConvSpec::new(), &mut rng)));
        let id = net.layer_infos()[0].id;
        net.hooks().register_forward(id, |ctx, out| {
            assert_eq!(ctx.kind, LayerKind::Conv2d);
            out.map_inplace(|_| 7.0);
        });
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2]));
        assert!(y.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn backward_accumulates_until_zeroed() {
        let mut rng = SeededRng::new(5);
        let mut net = Network::new(Box::new(Conv2d::new(1, 1, 3, ConvSpec::new(), &mut rng)));
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = net.forward(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut g1 = Vec::new();
        net.for_each_param(&mut |p| g1.extend_from_slice(p.grad.data()));
        net.forward(&x);
        net.backward(&Tensor::ones(y.dims()));
        let mut g2 = Vec::new();
        net.for_each_param(&mut |p| g2.extend_from_slice(p.grad.data()));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-5, "second backward doubles grads");
        }
    }

    #[test]
    fn int8_forward_drops_the_f32_gather_map() {
        use crate::quantized::{Backend, CalibrationTable};
        use std::sync::Arc;
        let mut rng = SeededRng::new(7);
        let mut conv = Conv2d::new(2, 3, 3, ConvSpec::new().padding(1), &mut rng);
        let x = Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let reg = HookRegistry::new();
        let mut fwd_rng = SeededRng::new(0);
        let mut planned_forward = |conv: &mut Conv2d, backend: &Backend| {
            let mut ctx = ForwardCtx::new(false, &reg, &mut fwd_rng, None, backend, true);
            conv.forward(&x, &mut ctx);
        };
        // Calibration runs f32 planned forwards before the INT8 backend goes in.
        planned_forward(&mut conv, &Backend::Fp32);
        assert!(conv.gather.is_some() && conv.gather_q.is_none());
        let int8 = Backend::Int8(Arc::new(CalibrationTable::from_scales(vec![0.05])));
        planned_forward(&mut conv, &int8);
        assert!(
            conv.gather.is_none(),
            "the INT8 forward dropped the f32 map"
        );
        assert!(conv.gather_q.is_some());
        assert!(
            conv.cached_input.is_none(),
            "planned forwards cache nothing"
        );
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv2d::new(1, 1, 1, ConvSpec::new(), &mut rng);
        let reg = HookRegistry::new();
        let mut ctx = BackwardCtx::new(&reg);
        conv.backward(&Tensor::ones(&[1, 1, 1, 1]), &mut ctx);
    }
}
