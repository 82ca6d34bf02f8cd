//! Counting wrappers around the two things a campaign calls back into: the
//! model factory and the perturbation model. Both delegate everything, so a
//! wrapped campaign computes the same records under the same configuration
//! fingerprint (`tests/wrappers.rs` checks this).

use rustfi::{PerturbCtx, PerturbationModel};
use rustfi_nn::Network;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A model factory that counts its calls and the time spent inside them.
pub struct CountingFactory {
    build: Box<dyn Fn() -> Network + Send + Sync>,
    builds: AtomicU64,
    nanos: AtomicU64,
}

impl CountingFactory {
    /// Wraps `build`.
    pub fn new(build: impl Fn() -> Network + Send + Sync + 'static) -> Self {
        Self {
            build: Box::new(build),
            builds: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Builds one network, counting the call and its duration.
    pub fn build(&self) -> Network {
        let start = Instant::now();
        let net = (self.build)();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.builds.fetch_add(1, Ordering::Relaxed);
        net
    }

    /// Calls and total time since the last `take`, resetting both.
    pub fn take(&self) -> (u64, Duration) {
        let builds = self.builds.swap(0, Ordering::Relaxed);
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (builds, Duration::from_nanos(nanos))
    }
}

/// A perturbation model that counts how many values it corrupts.
///
/// `name()` is forwarded, so the campaign's configuration fingerprint is
/// the wrapped model's. A `perturb_i8` call that declines (returns `None`)
/// is not counted: the injector then falls back to `perturb`, which is.
pub struct CountingModel {
    inner: Arc<dyn PerturbationModel>,
    calls: AtomicU64,
}

impl CountingModel {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn PerturbationModel>) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Perturbations since the last `take`, resetting the count.
    pub fn take(&self) -> u64 {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl PerturbationModel for CountingModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn perturb(&self, original: f32, ctx: &mut PerturbCtx<'_>) -> f32 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.perturb(original, ctx)
    }

    fn perturb_i8(&self, stored: i8, ctx: &mut PerturbCtx<'_>) -> Option<i8> {
        let out = self.inner.perturb_i8(stored, ctx);
        if out.is_some() {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}
