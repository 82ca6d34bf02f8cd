//! Campaign benchmark: runs one named workload through RustFI's public API,
//! checks every record against a one-thread reference run, and prints the
//! metrics by name with their units. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Usage:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger (see `README.md`). Fleet workers are this same binary, re-executed
//! with the `RUSTFI_SHARD_*` environment set.

use perfbench::ledger::{Ledger, KINDS};
use perfbench::workload::{self, Inputs, Workload};
use perfbench::wrap::{CountingFactory, CountingModel};
use perfbench::{host, matching_records, median, percentile};
use rustfi::shard::plan_shards;
use rustfi::{
    merge_shard_journals, Campaign, CampaignConfig, JournalHeader, JournalWriter, ModelProfile,
    ProgressRecorder, QuantMode, TrialRecord,
};
use rustfi_fleet::{
    orchestrate, run_shard_worker, worker_env, FleetConfig, WorkerEnv, ENV_SHARD_ATTEMPT,
    ENV_SHARD_COUNT, ENV_SHARD_INDEX, ENV_SHARD_JOURNAL,
};
use rustfi_nn::CalibrationTable;
use rustfi_obs::{Recorder, TraceRecorder};
use rustfi_tensor::{opcount, qkernels, tpool, SeededRng, Tensor};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Errors end the run without a result line.
type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Scratch directory, relative to the working directory, for journals.
const WORK_DIR: &str = ".bench_work";

/// Heartbeat interval of fleet workers (the `orchestrate` binary's value).
const HEARTBEAT: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

fn main() {
    if let Some(w) = worker_env() {
        std::process::exit(worker_main(&w));
    }
    let usage = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2);
    });
    let Some(wl) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        std::process::exit(2);
    };
    let work = WorkDir(PathBuf::from(WORK_DIR).join(format!("{}-{}", wl.name, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("creating {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = Bench::new(wl.clone(), args.seed).and_then(|mut bench| {
        let metrics = if args.trace {
            bench.per_layer(budget, &work.0)?
        } else {
            bench.end_to_end(budget, &work.0)?
        };
        Ok((bench.attempted, bench.failed, metrics))
    });
    drop(work);
    let (attempted, failed, metrics) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    let correct = failed == 0 && attempted > 0 && finite;
    println!(
        "workload {} seed {} trace {}",
        wl.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", host::fingerprint(wl.threads, wl.shards.max(1)));
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "records checked: {attempted}, failed: {failed} (failed_share {})",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// This run's scratch directory, removed on drop (also when a panic
/// unwinds), together with the shared parent once it is empty.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One in-process user call, timed.
struct Call {
    trials: usize,
    wall_s: f64,
    /// Worker-phase wall time, as the progress recorder reports it.
    worker_s: f64,
    builds: u64,
    build_s: f64,
    perturbs: u64,
    ledger: Option<Ledger>,
}

impl Call {
    fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall_s
    }
}

/// One fleet user call, timed.
struct FleetCall {
    wall_s: f64,
    setup_s: f64,
    spawns: u64,
    restarts: u64,
    worker_s_max: f64,
    imbalance: f64,
    supervision_s: f64,
    /// Largest peak resident memory of the call's workers, MiB.
    worker_rss_mb: f64,
}

/// A workload with its inputs, wrappers and reference records.
struct Bench {
    wl: Workload,
    seed: u64,
    inputs: Inputs,
    factory: Arc<CountingFactory>,
    model: Arc<CountingModel>,
    reference: Vec<TrialRecord>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(wl: Workload, seed: u64) -> Res<Self> {
        let inputs = wl.inputs(seed);
        let build = wl.model;
        let factory = Arc::new(CountingFactory::new(move || build(&workload::zoo_config())));
        let model = Arc::new(CountingModel::new((wl.fault)()));
        let mut bench = Bench {
            wl,
            seed,
            inputs,
            factory,
            model,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        // The untimed one-thread reference every timed call is checked
        // against; a record depends only on (seed, trial index), so shorter
        // calls compare against a prefix.
        let cfg = bench.wl.campaign_config(&bench.inputs, bench.wl.trials, 1);
        bench.reference = bench.with_campaign(|c| c.run(&cfg))?.records;
        if bench.reference.len() != bench.wl.trials {
            return Err("the reference run lost trials: not every image was eligible".into());
        }
        Ok(bench)
    }

    fn with_campaign<R>(&self, f: impl FnOnce(&Campaign<'_>) -> R) -> R {
        let factory = Arc::clone(&self.factory);
        let build = move || factory.build();
        let campaign = Campaign::new(
            &build,
            &self.inputs.images,
            &self.inputs.labels,
            self.wl.mode.clone(),
            Arc::clone(&self.model) as Arc<dyn rustfi::PerturbationModel>,
        );
        f(&campaign)
    }

    fn config(&self, trials: usize) -> CampaignConfig {
        self.wl
            .campaign_config(&self.inputs, trials, self.wl.threads)
    }

    /// Books `got` against the reference.
    fn check(&mut self, got: &[TrialRecord], expected: usize) {
        let matched = if got.len() == expected {
            matching_records(got, &self.reference, expected)
        } else {
            0
        };
        self.attempted += expected as u64;
        self.failed += (expected - matched) as u64;
        if matched != expected {
            eprintln!(
                "record check failed: {matched} of {expected} records match the reference ({} returned)",
                got.len()
            );
        }
    }

    /// One in-process user call of `trials` trials.
    fn call(&mut self, trials: usize, traced: bool) -> Res<Call> {
        let elapsed: Arc<Mutex<Option<Duration>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&elapsed);
        let recorder = traced.then(|| Arc::new(TraceRecorder::new()));
        let cfg = CampaignConfig {
            progress: Some(ProgressRecorder::new(trials, move |u| {
                *sink.lock().expect("progress sink") = Some(u.elapsed);
            })),
            recorder: recorder.clone().map(|r| r as Arc<dyn Recorder>),
            ..self.config(trials)
        };
        self.factory.take();
        self.model.take();
        let start = Instant::now();
        let result = self.with_campaign(|c| c.run(&cfg))?;
        let wall_s = start.elapsed().as_secs_f64();
        self.check(&result.records, trials);
        let (builds, build_time) = self.factory.take();
        let worker_s = elapsed
            .lock()
            .expect("progress sink")
            .map_or(wall_s, |d| d.as_secs_f64());
        Ok(Call {
            trials,
            wall_s,
            worker_s,
            builds,
            build_s: build_time.as_secs_f64(),
            perturbs: self.model.take(),
            ledger: recorder.map(|r| Ledger::from_snapshot(&r.snapshot())),
        })
    }

    /// Calls until `budget` has passed (at least one).
    fn calls(&mut self, budget: Duration, trials: usize, traced: bool) -> Res<Vec<Call>> {
        let deadline = Instant::now() + budget;
        let mut calls = Vec::new();
        loop {
            calls.push(self.call(trials, traced)?);
            if Instant::now() >= deadline {
                return Ok(calls);
            }
        }
    }

    /// One fleet user call: `orchestrate` over worker processes, up to the
    /// merged report.
    fn fleet_call(&mut self, dir: &Path) -> Res<FleetCall> {
        let _ = std::fs::remove_dir_all(dir);
        let trials = self.wl.trials;
        let fleet = FleetConfig::new(trials, self.wl.shards, dir.to_path_buf());
        let exe = std::env::current_exe()?;
        let (name, seed) = (self.wl.name, self.seed.to_string());
        let call_unix = unix_ns();
        let start = Instant::now();
        let report = orchestrate(&fleet, |spec, path, attempt| {
            Command::new(&exe)
                .args(["--workload", name, "--seed", &seed])
                .env(ENV_SHARD_INDEX, spec.index.to_string())
                .env(ENV_SHARD_COUNT, spec.count.to_string())
                .env(ENV_SHARD_JOURNAL, path)
                .env(ENV_SHARD_ATTEMPT, attempt.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        let merged = report.merged.as_ref().map_or(&[][..], |m| &m.records[..]);
        let complete = report.is_complete();
        self.check(if complete { merged } else { &[] }, trials);
        if report.restarts > 0 {
            eprintln!("the fleet restarted {} worker(s)", report.restarts);
            self.failed += 1;
        }

        // Each worker leaves `start first-trial end` (Unix nanoseconds) and
        // its peak resident memory (MiB).
        let mut spans: Vec<(u64, u64, u64)> = Vec::new();
        let mut worker_rss_mb: f64 = 0.0;
        for spec in plan_shards(trials, self.wl.shards) {
            let path = timing_path(&spec.journal_path(dir));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let v: Vec<&str> = text.split_whitespace().collect();
            if let [a, b, c, rss] = v[..] {
                spans.push((a.parse()?, b.parse()?, c.parse()?));
                worker_rss_mb = worker_rss_mb.max(rss.parse()?);
            }
        }
        if spans.len() != self.wl.shards {
            return Err("a fleet worker left no timing line".into());
        }
        let secs = |ns: u64| ns as f64 / 1e9;
        let first_start = spans.iter().map(|s| s.0).min().unwrap_or(0);
        let first_trial = spans.iter().map(|s| s.1).min().unwrap_or(0);
        let last_end = spans.iter().map(|s| s.2).max().unwrap_or(0);
        let runs: Vec<f64> = spans.iter().map(|s| secs(s.2 - s.0)).collect();
        let worker_s_max = runs.iter().copied().fold(0.0, f64::max);
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        Ok(FleetCall {
            wall_s,
            setup_s: secs(first_trial.saturating_sub(call_unix)),
            spawns: report.spawns,
            restarts: report.restarts,
            worker_s_max,
            imbalance: worker_s_max / mean,
            supervision_s: wall_s - secs(last_end.saturating_sub(first_start)),
            worker_rss_mb,
        })
    }

    fn fleet_calls(&mut self, budget: Duration, dir: &Path) -> Res<Vec<FleetCall>> {
        let deadline = Instant::now() + budget;
        let fleet_dir = dir.join("fleet");
        let mut calls = Vec::new();
        loop {
            calls.push(self.fleet_call(&fleet_dir)?);
            if Instant::now() >= deadline {
                return Ok(calls);
            }
        }
    }

    /// `--trace 0`: throughput, set-up time and peak memory of the user
    /// call, untraced.
    fn end_to_end(&mut self, budget: Duration, dir: &Path) -> Res<Vec<Metric>> {
        let mut rss_mb = host::peak_rss_mb();
        let (tps, setup): (Vec<f64>, Vec<f64>) = if self.wl.shards > 0 {
            self.fleet_call(&dir.join("fleet"))?; // warm-up
            let calls = self.fleet_calls(budget, dir)?;
            for c in &calls {
                rss_mb = rss_mb.max(c.worker_rss_mb);
            }
            calls
                .iter()
                .map(|c| (self.wl.trials as f64 / c.wall_s, c.setup_s))
                .unzip()
        } else {
            self.call(self.wl.trials, false)?; // warm-up
            self.calls(budget, self.wl.trials, false)?
                .iter()
                .map(|c| (c.trials_per_s(), c.wall_s - c.worker_s))
                .unzip()
        };
        eprintln!(
            "{} timed calls; median trials_per_s {:.1}, median setup_s {:.6}",
            tps.len(),
            median(&tps),
            median(&setup)
        );
        Ok(vec![
            metric("trials_per_s", fast_rate(&tps), "1/s"),
            metric("setup_s", fast_time(&setup), "s"),
            metric("peak_rss_mb", rss_mb.max(host::peak_rss_mb()), "MB"),
        ])
    }

    /// `--trace 1`: the per-layer ledger.
    fn per_layer(&mut self, budget: Duration, dir: &Path) -> Res<Vec<Metric>> {
        let wl = self.wl.clone();
        let threads = wl.threads as f64;
        let share = budget.mul_f64(if wl.shards > 0 { 0.3 } else { 0.4 });
        let mut out = Vec::new();

        // Untraced calls, then traced ones of the same campaign.
        self.call(wl.trials, false)?; // warm-up
        let plain = self.calls(share, wl.trials, false)?;
        let traced = self.calls(share, wl.trials, true)?;
        let mut ledger = Ledger::default();
        for c in &traced {
            ledger.absorb(c.ledger.as_ref().expect("traced call"));
        }
        let traced_worker_s: f64 = traced.iter().map(|c| c.worker_s).sum();
        let worker_s = fast_time(&plain.iter().map(|c| c.worker_s).collect::<Vec<_>>());
        let untraced_tps = fast_rate(&plain.iter().map(Call::trials_per_s).collect::<Vec<_>>());
        let traced_tps = fast_rate(&traced.iter().map(Call::trials_per_s).collect::<Vec<_>>());
        let plain_trials: usize = plain.iter().map(|c| c.trials).sum();

        // Isolated layers.
        let fwd = self.forward_costs();
        let ops = self.op_counts()?;
        let (flops, gflops) = self.gemm();
        let journal = self.journal(dir)?;

        out.push(metric("campaign.worker_s", worker_s, "s"));
        out.push(metric(
            "campaign.model_builds",
            median(&plain.iter().map(|c| c.builds as f64).collect::<Vec<_>>()),
            "count",
        ));
        out.push(metric(
            "campaign.model_build_s",
            fast_time(&plain.iter().map(|c| c.build_s).collect::<Vec<_>>()),
            "s",
        ));
        out.push(metric(
            "campaign.trial_cost_fwd",
            (worker_s * threads / wl.trials as f64) / (fwd.b1_us * 1e-6),
            "ratio",
        ));
        out.push(metric(
            "campaign.unattributed_share",
            ledger.unattributed_share(),
            "ratio",
        ));
        let gap = 1.0 - ledger.trial_ns as f64 / 1e9 / (traced_worker_s * threads);
        if gap.abs() > LEDGER_TOLERANCE {
            eprintln!(
                "warning: trial spans cover {:.1}% of the traced worker time, beyond the {:.0}% tolerance",
                100.0 * (1.0 - gap),
                100.0 * LEDGER_TOLERANCE
            );
        }
        out.push(metric("campaign.ledger_gap_share", gap, "ratio"));
        out.push(metric(
            "injector.perturb_calls_per_trial",
            plain.iter().map(|c| c.perturbs).sum::<u64>() as f64 / plain_trials as f64,
            "count",
        ));
        out.push(metric("nn.forward_b1_us", fwd.b1_us, "us"));
        out.push(metric(
            "nn.forward_b16_us_per_image",
            fwd.b16_us_per_image,
            "us",
        ));
        for kind in KINDS {
            out.push(metric(
                format!("nn.self_us_per_trial.{kind}"),
                ledger.self_us_per_trial(kind),
                "us",
            ));
        }
        out.push(metric(
            "nn.hook_dispatches_per_trial",
            ledger.hook_dispatches as f64 / ledger.trials.max(1) as f64,
            "count",
        ));
        out.push(metric("nn.calibrate_s", fwd.calibrate_s, "s"));
        let per_trial = |n: u64| n as f64 / OPCOUNT_TRIALS as f64;
        out.push(metric(
            "tensor.conv2d_calls_per_trial",
            per_trial(ops.conv2d),
            "count",
        ));
        out.push(metric(
            "tensor.matmul_calls_per_trial",
            per_trial(ops.matmul),
            "count",
        ));
        out.push(metric(
            "tensor.matmul_i8_calls_per_trial",
            per_trial(ops.matmul_i8),
            "count",
        ));
        out.push(metric(
            "tensor.elementwise_calls_per_trial",
            per_trial(ops.elementwise),
            "count",
        ));
        out.push(metric(
            "tensor.pool_calls_per_trial",
            per_trial(ops.pool),
            "count",
        ));
        out.push(metric(
            "tensor.norm_calls_per_trial",
            per_trial(ops.norm),
            "count",
        ));
        out.push(metric("tensor.flops_per_trial", flops, "flop"));
        out.push(metric("tensor.gemm_gflops", gflops, "GFLOP/s"));
        out.push(metric(
            "journal.bytes_per_trial",
            journal.bytes_per_trial,
            "B",
        ));
        out.push(metric("journal.append_us", journal.append_us, "us"));
        out.push(metric("shard.merge_s", journal.merge_s, "s"));

        let fleet = if wl.shards > 0 {
            self.fleet_calls(share, dir)?
        } else {
            Vec::new()
        };
        let fleet_values = |f: fn(&FleetCall) -> f64| fleet.iter().map(f).collect::<Vec<_>>();
        out.push(metric(
            "fleet.spawns",
            median(&fleet_values(|c| c.spawns as f64)),
            "count",
        ));
        out.push(metric(
            "fleet.restarts",
            fleet.iter().map(|c| c.restarts).sum::<u64>() as f64,
            "count",
        ));
        out.push(metric(
            "fleet.worker_s_max",
            fast_time(&fleet_values(|c| c.worker_s_max)),
            "s",
        ));
        out.push(metric(
            "fleet.imbalance",
            median(&fleet_values(|c| c.imbalance)),
            "ratio",
        ));
        out.push(metric(
            "fleet.supervision_s",
            fast_time(&fleet_values(|c| c.supervision_s)),
            "s",
        ));

        out.push(metric(
            "obs.trace_overhead_share",
            1.0 - traced_tps / untraced_tps,
            "ratio",
        ));
        out.push(metric(
            "obs.spans_dropped",
            ledger.spans_dropped as f64,
            "count",
        ));
        if ledger.spans_dropped > 0 {
            eprintln!("the trace recorder dropped {} spans", ledger.spans_dropped);
            self.failed += 1;
        }
        eprintln!(
            "ledger: layer self {:.4} s + unattributed {:.4} s = trial spans {:.4} s; \
             traced worker time × threads {:.4} s (gap {:.2}%)",
            ledger.attributed_ns() as f64 / 1e9,
            ledger.unattributed_ns as f64 / 1e9,
            ledger.trial_ns as f64 / 1e9,
            traced_worker_s * threads,
            100.0 * gap
        );
        Ok(out)
    }

    /// Isolated forward passes at batch 1 and 16, and calibration.
    fn forward_costs(&self) -> ForwardCosts {
        // Campaign workers arm the tensor pool with the default budget.
        let _pool = tpool::budget_scope(CampaignConfig::default().pool_budget_bytes);
        let mut net = self.wl.network(&self.inputs.images);
        let images = workload::image_list(&self.inputs.images);
        let mut i = 0;
        let b1 = per_call_s(ISOLATED, || {
            net.forward(&images[i % images.len()]).into_pool();
            i += 1;
        });
        let b16 = per_call_s(ISOLATED, || net.forward(&self.inputs.images).into_pool());
        let mut plain = self.wl.build();
        let calibrate_s = per_call_s(ISOLATED, || {
            CalibrationTable::calibrate(&mut plain, &images);
        });
        ForwardCosts {
            b1_us: b1 * 1e6,
            b16_us_per_image: b16 * 1e6 / images.len() as f64,
            calibrate_s,
        }
    }

    /// Exact kernel calls of `OPCOUNT_TRIALS` trials: the difference between
    /// two campaigns that differ only in trial count, so set-up cancels.
    fn op_counts(&mut self) -> Res<opcount::OpCounts> {
        opcount::reset();
        opcount::enable(true);
        let short = self.call(OPCOUNT_TRIALS, false);
        let a = opcount::counts();
        let long = self.call(2 * OPCOUNT_TRIALS, false);
        let b = opcount::counts();
        opcount::enable(false);
        short?;
        long?;
        // `a` counts the short call, `b − a` the long one.
        let trial_only = |a: u64, b: u64| b - a - a;
        Ok(opcount::OpCounts {
            conv2d: trial_only(a.conv2d, b.conv2d),
            matmul: trial_only(a.matmul, b.matmul),
            matmul_i8: trial_only(a.matmul_i8, b.matmul_i8),
            elementwise: trial_only(a.elementwise, b.elementwise),
            pool: trial_only(a.pool, b.pool),
            norm: trial_only(a.norm, b.norm),
        })
    }

    /// `(2·MACs of one forward, isolated GEMM GFLOP/s)` over the model's
    /// conv/linear shapes at batch 1.
    fn gemm(&self) -> (f64, f64) {
        let profile = ModelProfile::discover(&mut self.wl.build(), self.wl.input_dims());
        // (M, K, N) = (output channels, reduction length, output pixels).
        let shapes: Vec<(usize, usize, usize)> = profile
            .layers()
            .iter()
            .map(|l| {
                let k: usize = l.weight_dims[1..].iter().product();
                (l.weight_dims[0], k, l.output_dims[2] * l.output_dims[3])
            })
            .collect();
        let flops: f64 = profile
            .layers()
            .iter()
            .map(|l| {
                2.0 * l.neurons_per_image() as f64
                    * l.weight_dims[1..].iter().product::<usize>() as f64
            })
            .sum();
        let gemm_flops: f64 = shapes
            .iter()
            .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
            .sum();
        let mut rng = SeededRng::new(self.seed).fork(7);
        let secs = if self.wl.quant == QuantMode::Int8 {
            let mut mats: Vec<(Vec<i8>, Vec<i8>, Vec<i32>)> = shapes
                .iter()
                .map(|&(m, k, n)| {
                    let mut q = |len| {
                        (0..len)
                            .map(|_| rng.range(0, 255) as i8)
                            .collect::<Vec<i8>>()
                    };
                    (q(m * k), q(n * k), vec![0i32; m * n])
                })
                .collect();
            per_call_s(ISOLATED, || {
                for ((a, b, out), &(m, k, n)) in mats.iter_mut().zip(&shapes) {
                    qkernels::matmul_i8_nt(a, b, out, m, k, n);
                }
            })
        } else {
            let mats: Vec<(Tensor, Tensor)> = shapes
                .iter()
                .map(|&(m, k, n)| {
                    (
                        Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng),
                        Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng),
                    )
                })
                .collect();
            per_call_s(ISOLATED, || {
                for (a, b) in &mats {
                    std::hint::black_box(rustfi_tensor::matmul(a, b));
                }
            })
        };
        (flops, gemm_flops / secs / 1e9)
    }

    /// Isolated journal appends of the reference records into the journals
    /// a two-shard fleet writes, and the merge of those journals.
    fn journal(&mut self, dir: &Path) -> Res<JournalCosts> {
        let trials = self.wl.trials;
        let cfg = self.config(trials);
        let config_hash = self.with_campaign(|c| c.config_hash(&cfg));
        let jdir = dir.join("journal");
        std::fs::create_dir_all(&jdir)?;
        let specs = plan_shards(trials, 2);
        let paths: Vec<PathBuf> = specs.iter().map(|s| s.journal_path(&jdir)).collect();
        let mut append = Vec::new();
        for _ in 0..JOURNAL_REPS {
            let start = Instant::now();
            for (spec, path) in specs.iter().zip(&paths) {
                let header = JournalHeader {
                    seed: cfg.seed,
                    trials,
                    config_hash,
                    shard_index: spec.index,
                    shard_count: spec.count,
                };
                let mut w = JournalWriter::create(path, header)?;
                for r in &self.reference[spec.start..spec.end] {
                    w.append(r, path)?;
                }
            }
            append.push(start.elapsed().as_secs_f64() * 1e6 / trials as f64);
        }
        let bytes: u64 = paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        let mut merge = Vec::new();
        let mut merged = Vec::new();
        for _ in 0..JOURNAL_REPS {
            let start = Instant::now();
            merged = merge_shard_journals(&paths)?.records;
            merge.push(start.elapsed().as_secs_f64());
        }
        self.check(&merged, trials);
        Ok(JournalCosts {
            bytes_per_trial: bytes as f64 / trials as f64,
            append_us: fast_time(&append),
            merge_s: fast_time(&merge),
        })
    }
}

/// How far summed trial-span time may fall short of worker time × threads.
const LEDGER_TOLERANCE: f64 = 0.10;
/// Trials of the shorter op-counting campaign.
const OPCOUNT_TRIALS: usize = 200;
/// Time box of each isolated measurement.
const ISOLATED: Duration = Duration::from_millis(400);
/// Repetitions of the journal append and merge measurements.
const JOURNAL_REPS: usize = 10;

struct ForwardCosts {
    b1_us: f64,
    b16_us_per_image: f64,
    calibrate_s: f64,
}

struct JournalCosts {
    bytes_per_trial: f64,
    append_us: f64,
    merge_s: f64,
}

/// Seconds per call of `f` (fast decile of rounds), timed in rounds over
/// roughly `budget`.
fn per_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Size a round to ~1/20 of the budget from one probe call.
    let probe = Instant::now();
    f();
    let one = probe.elapsed().as_secs_f64().max(1e-7);
    let per_round = ((budget.as_secs_f64() / 20.0 / one) as usize).max(1);
    let deadline = Instant::now() + budget;
    let mut rounds = Vec::new();
    while rounds.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        for _ in 0..per_round {
            f();
        }
        rounds.push(start.elapsed().as_secs_f64() / per_round as f64);
    }
    fast_time(&rounds)
}

// Timings are summarised by their fast decile, not their median. On a shared
// 2-vCPU host, neighbouring load can halve a call's throughput for seconds
// to minutes at a time; the median follows how often that happens during a
// run, the fast decile follows the program.

/// The fast decile of a set of durations.
fn fast_time(values: &[f64]) -> f64 {
    percentile(values, 0.1)
}

/// The fast decile of a set of rates.
fn fast_rate(values: &[f64]) -> f64 {
    percentile(values, 0.9)
}

fn timing_path(journal: &Path) -> PathBuf {
    journal.with_extension("timing")
}

/// Fleet worker: rebuilds the workload from its arguments and runs one
/// shard, leaving `start first-trial end` Unix nanoseconds and its peak
/// resident memory next to its journal.
fn worker_main(w: &WorkerEnv) -> i32 {
    let run = || -> Result<(), String> {
        let mut args = std::env::args().skip(1);
        let (mut name, mut seed) = (None, None);
        while let (Some(flag), Some(value)) = (args.next(), args.next()) {
            match flag.as_str() {
                "--workload" => name = Some(value),
                "--seed" => seed = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        let wl = name
            .as_deref()
            .and_then(workload::by_name)
            .ok_or("worker needs --workload")?;
        let seed = seed.ok_or("worker needs --seed")?;
        let inputs = wl.inputs(seed);
        let build = || wl.build();
        let campaign = Campaign::new(
            &build,
            &inputs.images,
            &inputs.labels,
            wl.mode.clone(),
            (wl.fault)(),
        );
        let spec = plan_shards(wl.trials, w.count)[w.index];
        let first_trial: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let sink = Arc::clone(&first_trial);
        let cfg = CampaignConfig {
            progress: Some(ProgressRecorder::new(spec.trials().max(1), move |u| {
                let at = unix_ns().saturating_sub(u.elapsed.as_nanos() as u64);
                *sink.lock().expect("progress sink") = at;
            })),
            ..wl.campaign_config(&inputs, wl.trials, wl.threads)
        };
        let start = unix_ns();
        run_shard_worker(&campaign, &cfg, &spec, &w.journal, HEARTBEAT)
            .map_err(|e| e.to_string())?;
        let end = unix_ns();
        let first = *first_trial.lock().expect("progress sink");
        let rss = host::peak_rss_mb();
        std::fs::write(
            timing_path(&w.journal),
            format!("{start} {first} {end} {rss}\n"),
        )
        .map_err(|e| e.to_string())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleet worker {}/{}: {e}", w.index, w.count);
            1
        }
    }
}
