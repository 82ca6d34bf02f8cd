//! The benchmark's counting wrappers must be invisible to the campaign: same
//! configuration fingerprint, same records.

use perfbench::same_record;
use perfbench::workload::{self, Workload};
use perfbench::wrap::{CountingFactory, CountingModel};
use rustfi::{Campaign, CampaignConfig};
use std::sync::Arc;

fn assert_wrappers_invisible(wl: &Workload, trials: usize) {
    let inputs = wl.inputs(7);
    let cfg = wl.campaign_config(&inputs, trials, 2);

    let plain_build = || wl.build();
    let plain = Campaign::new(
        &plain_build,
        &inputs.images,
        &inputs.labels,
        wl.mode.clone(),
        (wl.fault)(),
    );
    let model = wl.model;
    let factory = CountingFactory::new(move || model(&workload::zoo_config()));
    let counted_build = || factory.build();
    let perturb = Arc::new(CountingModel::new((wl.fault)()));
    let counted = Campaign::new(
        &counted_build,
        &inputs.images,
        &inputs.labels,
        wl.mode.clone(),
        Arc::clone(&perturb) as Arc<dyn rustfi::PerturbationModel>,
    );

    assert_eq!(plain.config_hash(&cfg), counted.config_hash(&cfg));
    let expected = plain.run(&cfg).expect("plain campaign");
    let got = counted.run(&cfg).expect("wrapped campaign");
    assert_eq!(expected.records.len(), trials, "every image is eligible");
    assert_eq!(got.records.len(), trials);
    assert!(expected
        .records
        .iter()
        .zip(&got.records)
        .all(|(a, b)| same_record(a, b)));

    // One golden build plus one per extra worker thread; one perturbation
    // per single-site trial.
    assert_eq!(factory.take().0, 2);
    assert_eq!(perturb.take(), trials as u64);
}

#[test]
fn wrappers_leave_neuron_f32_records_unchanged() {
    assert_wrappers_invisible(&workload::by_name("fleet_lenet").unwrap(), 64);
}

#[test]
fn wrappers_leave_int8_weight_records_unchanged() {
    assert_wrappers_invisible(&workload::by_name("weight_int8_resnet18").unwrap(), 16);
}

#[test]
fn workloads_keep_every_strategy_field_at_its_default() {
    let default = CampaignConfig::default();
    for wl in workload::all() {
        let inputs = wl.inputs(1);
        let cfg = wl.campaign_config(&inputs, wl.trials, wl.threads);
        assert!(cfg.prefix_cache.is_none(), "{}", wl.name);
        assert!(cfg.fusion.is_none(), "{}", wl.name);
        assert_eq!(cfg.plan, default.plan, "{}", wl.name);
        assert_eq!(
            cfg.pool_budget_bytes, default.pool_budget_bytes,
            "{}",
            wl.name
        );
        assert!(
            cfg.recorder.is_none() && cfg.progress.is_none(),
            "{}",
            wl.name
        );
    }
}
