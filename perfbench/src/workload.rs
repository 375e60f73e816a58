//! The benchmark's workloads and the closed loop that drives them.
//!
//! A workload is a dataset preset, a model and a partitioning path. Each
//! is chosen to stress a different layer of the system; see
//! `perfbench/README.md` for why each exists and which layers it bypasses.

use std::path::{Path, PathBuf};
use std::time::Instant;

use betty::{
    CheckpointPlan, EpochStats, ExperimentConfig, ModelKind, RecoveryLog, Runner, StrategyKind,
};
use betty_data::{Dataset, DatasetSpec, Features, PagedFeatures};

const MIB: usize = 1 << 20;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Betty's headline path: REG partitioning with memory-aware K under a
    /// small simulated device, through the OOM-recovering entry point.
    ProductsBettyAuto,
    /// Compute-bound GAT at a fixed K with the cheapest split.
    RedditGatRange,
    /// Out-of-core features through a small page cache, with a durable
    /// checkpoint after every epoch.
    ArxivPagedMetis,
}

/// One call to a workload's epoch entry point, as the benchmark saw it.
#[derive(Debug)]
pub struct EpochRun {
    /// The epoch's statistics, or the error the entry point returned.
    pub result: Result<EpochStats, String>,
    /// Micro-batches the epoch trained with (after any OOM retries).
    pub k: usize,
    /// Wall seconds and bytes of the checkpoint written after the epoch.
    pub save: Option<(f64, u64)>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ProductsBettyAuto,
        Workload::RedditGatRange,
        Workload::ArxivPagedMetis,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProductsBettyAuto => "products-betty-auto",
            Workload::RedditGatRange => "reddit-gat-range",
            Workload::ArxivPagedMetis => "arxiv-paged-metis",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self) -> DatasetSpec {
        match self {
            Workload::ProductsBettyAuto => DatasetSpec::ogbn_products().scaled(0.004),
            Workload::RedditGatRange => DatasetSpec::reddit().scaled(0.012),
            Workload::ArxivPagedMetis => {
                DatasetSpec::ogbn_arxiv().scaled(0.02).with_feature_dim(256)
            }
        }
    }

    /// Library defaults except where the workload names a setting.
    pub fn config(self) -> ExperimentConfig {
        let base = ExperimentConfig::default();
        match self {
            Workload::ProductsBettyAuto => ExperimentConfig {
                fanouts: vec![10, 15, 20],
                hidden_dim: 64,
                capacity_bytes: 10 * MIB,
                ..base
            },
            Workload::RedditGatRange => ExperimentConfig {
                fanouts: vec![10, 25],
                hidden_dim: 128,
                model: ModelKind::Gat,
                num_heads: 4,
                ..base
            },
            Workload::ArxivPagedMetis => base,
        }
    }

    pub fn strategy(self) -> StrategyKind {
        match self {
            Workload::ProductsBettyAuto => StrategyKind::Betty,
            Workload::RedditGatRange => StrategyKind::Range,
            Workload::ArxivPagedMetis => StrategyKind::Metis,
        }
    }

    /// The fixed micro-batch count, or `None` for memory-aware K.
    pub fn fixed_k(self) -> Option<usize> {
        match self {
            Workload::ProductsBettyAuto => None,
            Workload::RedditGatRange | Workload::ArxivPagedMetis => Some(4),
        }
    }

    /// Epochs of the fixed-length training run whose last loss is
    /// `loss_final` and after which `val_acc` is measured. The correctness
    /// gate compares exactly these epochs. Each is the epoch where the
    /// spread of loss and accuracy across seeds is smallest together: loss
    /// spreads more the longer training runs, accuracy less.
    pub fn quality_epochs(self) -> usize {
        match self {
            Workload::ProductsBettyAuto => 10,
            Workload::RedditGatRange => 6,
            Workload::ArxivPagedMetis => 9,
        }
    }

    /// Rows per on-disk feature shard and the page-cache budget of the
    /// paged store (`None`: dense in-memory features).
    fn paging(self) -> Option<(usize, usize)> {
        match self {
            Workload::ArxivPagedMetis => Some((16, 800 << 10)),
            _ => None,
        }
    }

    /// Generates the dataset from `seed` and, for a paged workload, spills
    /// its features into `dir`.
    pub fn dataset(self, seed: u64, dir: &Path) -> Result<Dataset, String> {
        let mut dataset = self.spec().generate(seed);
        if let Some((page_rows, cache)) = self.paging() {
            dataset.features = dataset
                .features
                .to_paged(dir.join("features"), page_rows, cache)
                .map_err(|e| format!("spilling features: {e}"))?;
        }
        Ok(dataset)
    }

    /// Reopens a paged store so the next session starts from an empty
    /// page cache, exactly like the first; a no-op for dense features.
    pub fn reset_cache(self, dataset: &mut Dataset, dir: &Path) -> Result<(), String> {
        if let Some((_, cache)) = self.paging() {
            let store = PagedFeatures::open(dir.join("features"), cache)
                .map_err(|e| format!("reopening features: {e}"))?;
            dataset.features = Features::paged(store);
        }
        Ok(())
    }

    /// Bytes of one stored feature row.
    pub fn row_bytes(self, dataset: &Dataset) -> usize {
        dataset.feature_dim() * dataset.features.dtype().bytes_per_value()
    }
}

/// One trainer running epoch after epoch: the closed loop's only client.
pub struct Session {
    workload: Workload,
    runner: Runner,
    log: RecoveryLog,
    checkpoints: Option<CheckpointPlan>,
    epoch: usize,
}

impl Session {
    pub fn new(workload: Workload, dataset: &Dataset, seed: u64, dir: &Path) -> Self {
        let checkpoints = (workload == Workload::ArxivPagedMetis)
            .then(|| CheckpointPlan::new(dir.join("checkpoints"), 1));
        Self {
            workload,
            runner: Runner::new(dataset, &workload.config(), seed),
            log: RecoveryLog::new(),
            checkpoints,
            epoch: 0,
        }
    }

    pub fn checkpoints_each_epoch(&self) -> bool {
        self.checkpoints.is_some()
    }

    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    pub fn runner_mut(&mut self) -> &mut Runner {
        &mut self.runner
    }

    /// One call to the workload's epoch entry point. For the paged
    /// workload the entry point includes the durable checkpoint.
    pub fn epoch(&mut self, dataset: &Dataset) -> EpochRun {
        let w = self.workload;
        let (result, k) = match w.fixed_k() {
            None => {
                self.log.set_epoch(self.epoch);
                match self
                    .runner
                    .train_epoch_auto_recovering(dataset, w.strategy(), &mut self.log)
                {
                    Ok((stats, k)) => (Ok(stats), k),
                    Err(e) => (Err(e.to_string()), 0),
                }
            }
            Some(k) => (
                self.runner
                    .train_epoch_betty(dataset, w.strategy(), k)
                    .map_err(|e| e.to_string()),
                k,
            ),
        };
        let (mut result, mut save) = (result, None);
        if let (Some(plan), Ok(_)) = (&self.checkpoints, &result) {
            match timed_save(&self.runner, plan, self.epoch) {
                Ok(timed) => {
                    save = Some(timed);
                    if self.epoch > 0 {
                        // Keep one slot on disk however long the loop runs.
                        let _ = std::fs::remove_file(plan.path_for(self.epoch - 1));
                    }
                }
                Err(e) => result = Err(e),
            }
        }
        self.epoch += 1;
        EpochRun { result, k, save }
    }

    /// Validation accuracy in percent, after the session's epochs.
    pub fn val_acc(&mut self, dataset: &Dataset) -> f64 {
        100.0 * self.runner.evaluate(dataset, &dataset.val_idx)
    }
}

/// Saves `runner`'s session as the checkpoint for `epoch`, returning the
/// wall seconds of `CheckpointPlan::save` and the bytes it wrote.
pub fn timed_save(
    runner: &Runner,
    plan: &CheckpointPlan,
    epoch: usize,
) -> Result<(f64, u64), String> {
    let state = runner.export_session();
    let started = Instant::now();
    let path = plan.save(&state, epoch).map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok((secs, bytes))
}

/// A directory inside the checkout for spilled features and checkpoints,
/// removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(workload: Workload) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
