//! The three benchmark workloads and the inputs each one derives from a seed.
//!
//! Every campaign built here sets only the fields that say *what* to compute
//! (`trials`, `seed`, `threads`, `quant`) and leaves every execution-strategy
//! field at `CampaignConfig::default()`, so the benchmark measures what a
//! plain user of the public API pays.

use rustfi::metrics::top1;
use rustfi::models::{BitFlipFp32, BitFlipInt8, BitSelect};
use rustfi::{CampaignConfig, FaultMode, NeuronSelect, PerturbationModel, QuantMode, WeightSelect};
use rustfi_nn::{zoo, Backend, CalibrationTable, Network, ZooConfig};
use rustfi_tensor::{SeededRng, Tensor};
use std::sync::Arc;

/// Images per workload: the campaign's whole test set.
pub const IMAGES: usize = 16;

/// One named workload.
#[derive(Clone)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Zoo constructor of the model under test.
    pub model: fn(&ZooConfig) -> Network,
    /// What each trial perturbs.
    pub mode: FaultMode,
    /// Fault model of every trial.
    pub fault: fn() -> Arc<dyn PerturbationModel>,
    /// Arithmetic of the campaign's forwards.
    pub quant: QuantMode,
    /// Worker threads per process.
    pub threads: usize,
    /// Worker processes; `0` runs the campaign in the calling process.
    pub shards: usize,
    /// Trials per user call.
    pub trials: usize,
}

fn bitflip_fp32() -> Arc<dyn PerturbationModel> {
    Arc::new(BitFlipFp32::new(BitSelect::Random))
}

fn bitflip_int8() -> Arc<dyn PerturbationModel> {
    Arc::new(BitFlipInt8::new(BitSelect::Random))
}

/// Every workload, in the order the documentation lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "neuron_f32_vgg19",
            model: zoo::vgg19,
            mode: FaultMode::Neuron(NeuronSelect::Random),
            fault: bitflip_fp32,
            quant: QuantMode::Off,
            threads: 2,
            shards: 0,
            trials: 4000,
        },
        Workload {
            name: "weight_int8_resnet18",
            model: zoo::resnet18,
            mode: FaultMode::Weight(WeightSelect::Random),
            fault: bitflip_int8,
            quant: QuantMode::Int8,
            threads: 2,
            shards: 0,
            trials: 2000,
        },
        Workload {
            name: "fleet_lenet",
            model: zoo::lenet,
            mode: FaultMode::Neuron(NeuronSelect::Random),
            fault: bitflip_fp32,
            quant: QuantMode::Off,
            threads: 1,
            shards: 2,
            trials: 16000,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The model configuration every workload uses (CIFAR-10-like, 3×16×16).
pub fn zoo_config() -> ZooConfig {
    ZooConfig::cifar10_like()
}

/// Everything a workload derives from the benchmark's `--seed`.
pub struct Inputs {
    /// `IMAGES` synthetic images, `[IMAGES, 3, 16, 16]`.
    pub images: Tensor,
    /// The model's own clean top-1 prediction for each image, so every
    /// image is eligible for injection.
    pub labels: Vec<usize>,
    /// The campaign's root seed.
    pub campaign_seed: u64,
}

impl Workload {
    /// Builds one copy of the model.
    pub fn build(&self) -> Network {
        (self.model)(&zoo_config())
    }

    /// The single-image input shape.
    pub fn input_dims(&self) -> [usize; 4] {
        let c = zoo_config();
        [1, c.in_channels, c.image_hw, c.image_hw]
    }

    /// Synthesizes the images from `seed` and labels them with the model's
    /// clean predictions under the workload's arithmetic.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let root = SeededRng::new(seed);
        let [_, c, h, w] = self.input_dims();
        let mut pixels = root.fork(1);
        let images = Tensor::rand_uniform(&[IMAGES, c, h, w], -1.0, 1.0, &mut pixels);
        let mut net = self.network(&images);
        let labels = (0..IMAGES)
            .map(|i| top1(net.forward(&images.select_batch(i)).data()))
            .collect();
        Inputs {
            images,
            labels,
            campaign_seed: root.fork(2).seed(),
        }
    }

    /// A network under the workload's arithmetic, as a campaign runs it:
    /// under `QuantMode::Int8`, the INT8 backend calibrated on `images`.
    pub fn network(&self, images: &Tensor) -> Network {
        let mut net = self.build();
        if self.quant == QuantMode::Int8 {
            let table = CalibrationTable::calibrate(&mut net, &image_list(images));
            net.set_backend(Backend::Int8(Arc::new(table)));
        }
        net
    }

    /// The campaign configuration of one user call: only what to compute,
    /// every strategy field at its default.
    pub fn campaign_config(
        &self,
        inputs: &Inputs,
        trials: usize,
        threads: usize,
    ) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed: inputs.campaign_seed,
            threads: Some(threads),
            quant: self.quant,
            ..CampaignConfig::default()
        }
    }
}

/// The images as single-image tensors (the calibration input format).
pub fn image_list(images: &Tensor) -> Vec<Tensor> {
    (0..images.dims()[0])
        .map(|i| images.select_batch(i))
        .collect()
}
