//! Compiled forward plans: gather-plan lowering and fused row epilogues.
//!
//! A fault-injection campaign runs the same layers over the same input
//! shapes millions of times. The plan keeps two things that pay for
//! themselves on that workload:
//!
//! - [`GatherPlan`]: the im2col / im2row index arithmetic, computed once per
//!   input shape, so the per-forward lowering is one flat indexed copy;
//! - the row epilogue ([`per_row_epilogue`]): one in-place pass over a
//!   convolution's raw GEMM output that applies bias, folded batch-norm and
//!   activation together, replacing the separate memory-bound bias,
//!   batch-norm and activation passes of the serial layer chain.
//!
//! The GEMM itself is the backend's ordinary kernel
//! ([`matmul_into`](crate::matmul_into) or
//! [`matmul_i8_nt`](crate::matmul_i8_nt)) on the layer's own weights.
//!
//! **Bit-identity.** The epilogue replicates the per-element op order of
//! the serial chain — bias add (`acc + b`), then folded batch-norm
//! (`(v - mean) * inv_std` followed by `g * n + b`), then activation
//! (`v.max(0.0)` / leaky) — so planned and unplanned forwards produce the
//! same bits.

/// Activation applied by a fused epilogue, replicating the exact
/// per-element ops of the standalone kernels in [`kernels`](crate::kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Raw affine output.
    None,
    /// `v.max(0.0)` — same `f32::max` as [`relu_mask`](crate::kernels::relu_mask).
    Relu,
    /// `if v <= 0 { slope * v } else { v }` — same branch as
    /// [`leaky_relu_mask`](crate::kernels::leaky_relu_mask).
    LeakyRelu(f32),
}

impl Act {
    /// Applies the activation to one value.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Act::None => v,
            Act::Relu => v.max(0.0),
            Act::LeakyRelu(slope) => {
                let neg = v <= 0.0;
                if neg {
                    slope * v
                } else {
                    v
                }
            }
        }
    }
}

/// Folded inference-mode batch-norm constants, one entry per output row
/// (= output channel). `inv_std` must be precomputed as
/// `1.0 / (var + eps).sqrt()` — the exact expression the standalone layer
/// uses — so the fused chain reproduces its bits.
#[derive(Debug, Clone, Copy)]
pub struct BnFoldView<'a> {
    /// Running mean per channel.
    pub mean: &'a [f32],
    /// `1 / sqrt(running_var + eps)` per channel.
    pub inv_std: &'a [f32],
    /// Scale (γ) per channel.
    pub gamma: &'a [f32],
    /// Shift (β) per channel.
    pub beta: &'a [f32],
}

impl BnFoldView<'_> {
    /// Channel `c`'s constants as `(mean, inv_std, gamma, beta)`.
    #[inline(always)]
    pub fn channel(&self, c: usize) -> (f32, f32, f32, f32) {
        (self.mean[c], self.inv_std[c], self.gamma[c], self.beta[c])
    }
}

/// Convolution epilogue, in place: `out` holds consecutive output-channel
/// rows of `width` raw GEMM sums, row `r` being channel `ch0 + r`. Each
/// element becomes `act(bn(v + bias[c]))` with the serial chain's
/// per-element ops.
///
/// # Panics
///
/// Panics if `width == 0` or a channel index runs past `bias` or the
/// batch-norm constants.
pub fn per_row_epilogue(
    out: &mut [f32],
    width: usize,
    ch0: usize,
    bias: &[f32],
    bn: Option<BnFoldView<'_>>,
    act: Act,
) {
    for (r, row) in out.chunks_exact_mut(width).enumerate() {
        let c = ch0 + r;
        let b = bias[c];
        match bn {
            None => {
                for v in row {
                    *v = act.apply(*v + b);
                }
            }
            Some(f) => {
                let (mean, inv_std, gamma, beta) = f.channel(c);
                for v in row {
                    let x = *v + b;
                    let n = (x - mean) * inv_std;
                    *v = act.apply(gamma * n + beta);
                }
            }
        }
    }
}

/// A precomputed gather map: the compiled plan's replacement for per-element
/// index arithmetic when lowering an activation slice into a GEMM operand
/// (im2col / im2row). Each entry is either a source offset or an
/// out-of-range sentinel standing for a padding zero, so the per-forward
/// lowering collapses to one flat indexed copy — no per-element coordinate
/// math, no edge-case branches.
///
/// The map is a pure function of the convolution geometry and the input
/// spatial shape, so it is built once per campaign (lazily, on the first
/// planned forward that sees the shape) and reused by every trial.
#[derive(Debug, Clone)]
pub struct GatherPlan {
    /// Expected source slice length; gathers assert against it.
    src_len: usize,
    /// One source offset per destination element; any value `>= src_len`
    /// writes the type's zero instead.
    idx: Offsets,
}

/// A gather map's offsets: `u32`, or `u16` for a [`GatherPlan::compact`]
/// map whose source is short enough.
#[derive(Debug, Clone)]
enum Offsets {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl GatherPlan {
    /// Sentinel for "this destination element is a padding zero".
    pub const PAD: u32 = u32::MAX;

    /// Wraps a prebuilt index map. `idx` entries `>= src_len` gather a zero.
    ///
    /// # Panics
    ///
    /// Panics if `src_len` overflows `u32` (the map's offset width).
    pub fn new(src_len: usize, idx: Vec<u32>) -> Self {
        assert!(
            u32::try_from(src_len).is_ok(),
            "gather source too large for u32 offsets"
        );
        Self {
            src_len,
            idx: Offsets::U32(idx),
        }
    }

    /// Like [`GatherPlan::new`], but stores the offsets as `u16` when the
    /// source is shorter than `u16::MAX`, halving the map. Meant for
    /// one-byte elements, whose `u32` offsets would take four times the
    /// space of the lowered matrix itself.
    ///
    /// # Panics
    ///
    /// Panics if `src_len` overflows `u32`.
    pub fn compact(src_len: usize, idx: Vec<u32>) -> Self {
        let mut plan = Self::new(src_len, idx);
        if src_len < usize::from(u16::MAX) {
            if let Offsets::U32(wide) = &plan.idx {
                // Every out-of-range entry narrows to `u16::MAX`, which
                // stays out of range.
                let narrow = wide.iter().map(|&i| i.min(u32::from(u16::MAX)) as u16);
                plan.idx = Offsets::U16(narrow.collect());
            }
        }
        plan
    }

    /// Number of destination elements the map produces.
    pub fn len(&self) -> usize {
        match &self.idx {
            Offsets::U16(v) => v.len(),
            Offsets::U32(v) => v.len(),
        }
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes the gather: `dst[i] = src[idx[i]]`, or `T::default()` where
    /// the entry is out of range (padding). The single `src.get` bound per
    /// element is the entire inner loop — padding needs no special case
    /// because the sentinel is simply an out-of-range offset.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` disagree with the map's dimensions.
    pub fn gather<T: Copy + Default>(&self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), self.src_len, "gather source length");
        assert_eq!(dst.len(), self.len(), "gather destination length");
        match &self.idx {
            Offsets::U16(idx) => {
                for (d, &ix) in dst.iter_mut().zip(idx) {
                    *d = src.get(usize::from(ix)).copied().unwrap_or_default();
                }
            }
            Offsets::U32(idx) => {
                for (d, &ix) in dst.iter_mut().zip(idx) {
                    *d = src.get(ix as usize).copied().unwrap_or_default();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_into;
    use crate::rng::SeededRng;
    use crate::tensor::Tensor;

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn gather_plan_copies_and_zero_fills() {
        let idx = vec![2, 0, GatherPlan::PAD, 3, 7];
        for plan in [GatherPlan::new(4, idx.clone()), GatherPlan::compact(4, idx)] {
            let src = [10.0f32, 11.0, 12.0, 13.0];
            let mut dst = [f32::NAN; 5];
            plan.gather(&src, &mut dst);
            // Both the canonical PAD sentinel and any other out-of-range
            // offset produce the zero element.
            assert_eq!(dst, [12.0, 10.0, 0.0, 13.0, 0.0]);
            let qsrc = [1i8, 2, 3, 4];
            let mut qdst = [9i8; 5];
            plan.gather(&qsrc, &mut qdst);
            assert_eq!(qdst, [3, 1, 0, 4, 0]);
        }
    }

    #[test]
    fn compact_maps_keep_u32_offsets_for_wide_sources() {
        // Offsets at and past u16::MAX must neither truncate nor alias the
        // padding sentinel.
        let n = 70_000usize;
        let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let plan = GatherPlan::compact(n, vec![65_535, 69_999, GatherPlan::PAD, 7]);
        let mut dst = [f32::NAN; 4];
        plan.gather(&src, &mut dst);
        assert_eq!(dst, [65_535.0, 69_999.0, 0.0, 7.0]);
        let edge = GatherPlan::compact(65_535, vec![65_534, 65_535, 0]);
        let src: Vec<u8> = (0..65_535u32).map(|i| (i % 251) as u8 + 1).collect();
        let mut dst = [9u8; 3];
        edge.gather(&src, &mut dst);
        assert_eq!(dst, [src[65_534], 0, src[0]]);
    }

    #[test]
    fn epilogue_matches_serial_chain_bit_for_bit() {
        let mut rng = SeededRng::new(59);
        let (m, k, n) = (6usize, 21usize, 40usize);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 2.5) * 0.3).collect();
        let mean: Vec<f32> = (0..m).map(|i| (i as f32) * 0.11).collect();
        let var: Vec<f32> = (0..m).map(|i| 0.5 + i as f32 * 0.07).collect();
        let gamma: Vec<f32> = (0..m).map(|i| 1.0 - i as f32 * 0.05).collect();
        let beta: Vec<f32> = (0..m).map(|i| i as f32 * 0.02 - 0.1).collect();
        let eps = 1e-5f32;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();

        // Serial chain: raw GEMM, then bias, then BN, then leaky ReLU — the
        // exact per-element expressions of the standalone layers.
        let mut serial = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), &mut serial, m, k, n, false);
        let mut fused = serial.clone();
        for r in 0..m {
            for v in &mut serial[r * n..(r + 1) * n] {
                let x = *v + bias[r];
                let nrm = (x - mean[r]) * inv_std[r];
                let y = gamma[r] * nrm + beta[r];
                let neg = y <= 0.0;
                *v = if neg { 0.01 * y } else { y };
            }
        }

        let bn = Some(BnFoldView {
            mean: &mean,
            inv_std: &inv_std,
            gamma: &gamma,
            beta: &beta,
        });
        // Two calls with a channel offset, as grouped convolution makes
        // them, must cover the rows exactly like one call.
        let (lo, hi) = fused.split_at_mut(2 * n);
        per_row_epilogue(lo, n, 0, &bias, bn, Act::LeakyRelu(0.01));
        per_row_epilogue(hi, n, 2, &bias, bn, Act::LeakyRelu(0.01));
        assert_bits_eq(&fused, &serial, "fused epilogue");
    }
}
