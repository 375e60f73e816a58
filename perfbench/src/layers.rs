//! Per-layer metrics of the traced run.
//!
//! Layers are named after the crates and modules they time. Seconds come
//! from the runner's existing trace spans or from the planning probe;
//! counters come from `EpochStats`. Each metric is a per-epoch figure over
//! the traced run's timed epochs: a median for seconds, a mean for counts.

use betty::{EpochStats, SpanKind, SpanRecord};

use crate::modelled::modelled_seconds;
use crate::probe::PlanProbe;
use crate::stats::median;

const MIB: f64 = (1u64 << 20) as f64;

/// Span seconds of one epoch, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSums {
    pub sample: f64,
    pub partition: f64,
    pub plan: f64,
    pub forward: f64,
    pub backward: f64,
}

impl SpanSums {
    /// Sums the spans recorded for trace epoch `epoch`.
    pub fn of_epoch(spans: &[SpanRecord], epoch: usize) -> Self {
        let mut sums = Self::default();
        for span in spans.iter().filter(|s| s.epoch == epoch) {
            let slot = match span.kind {
                SpanKind::Sample => &mut sums.sample,
                SpanKind::Partition => &mut sums.partition,
                SpanKind::Plan => &mut sums.plan,
                SpanKind::Forward => &mut sums.forward,
                SpanKind::Backward => &mut sums.backward,
                _ => continue,
            };
            *slot += span.dur_sec;
        }
        sums
    }

    /// Seconds the spans attribute; transfer spans are modelled and are
    /// not counted.
    pub fn attributed(&self) -> f64 {
        self.sample + self.partition + self.plan + self.forward + self.backward
    }
}

/// Everything the traced run recorded about one timed epoch.
#[derive(Debug, Clone)]
pub struct TracedEpoch {
    /// Bench-side wall seconds of the epoch entry point.
    pub wall_s: f64,
    /// The epoch's statistics (`None`: the entry point failed).
    pub stats: Option<EpochStats>,
    /// Micro-batches the epoch trained with.
    pub k: usize,
    /// Wall seconds and bytes of the checkpoint written in the epoch.
    pub save: Option<(f64, u64)>,
    pub spans: SpanSums,
    pub probe: PlanProbe,
}

/// Inputs to the per-layer report besides the traced epochs.
#[derive(Debug, Clone, Copy)]
pub struct LayerContext {
    /// Bytes of one stored feature row.
    pub row_bytes: usize,
    /// Median untraced epoch wall seconds of the same run.
    pub untraced_p50: f64,
    /// A checkpoint save timed outside the loop, for workloads whose
    /// epochs do not save.
    pub save_probe: Option<(f64, u64)>,
    /// Peak resident set after the untraced loop's quality epochs.
    pub host_rss_mib: f64,
}

/// `(name, value, unit)` for every per-layer metric, in report order.
///
/// Seconds use every traced epoch. Counts use only the first `counted`,
/// which every traced run of the workload reaches, so that they repeat
/// exactly at a seed however many epochs fit in the budget.
pub fn layer_metrics(
    epochs: &[TracedEpoch],
    counted: usize,
    ctx: LayerContext,
) -> Vec<(&'static str, f64, &'static str)> {
    assert!(!epochs.is_empty(), "per-layer metrics need a traced epoch");
    let counted = &epochs[..counted.clamp(1, epochs.len())];
    let med = |f: &dyn Fn(&TracedEpoch) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    let mean =
        |f: &dyn Fn(&TracedEpoch) -> f64| counted.iter().map(f).sum::<f64>() / counted.len() as f64;
    let ok: Vec<EpochStats> = counted.iter().filter_map(|e| e.stats).collect();
    let sum = |f: &dyn Fn(&EpochStats) -> u64| ok.iter().map(f).sum::<u64>() as f64;
    let stat_mean = |f: &dyn Fn(&EpochStats) -> f64| {
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().map(f).sum::<f64>() / ok.len() as f64
        }
    };

    let pool_total = sum(&|s| s.pool_hits + s.pool_misses);
    let rows = sum(&|s| s.feature_hits + s.feature_misses);
    let missed_bytes = sum(&|s| s.feature_misses) * ctx.row_bytes as f64;
    let paged_bytes = sum(&|s| s.feature_page_in_bytes);
    let saves: Vec<(f64, u64)> = match epochs.iter().filter_map(|e| e.save).collect::<Vec<_>>() {
        in_loop if !in_loop.is_empty() => in_loop,
        _ => ctx.save_probe.into_iter().collect(),
    };
    let (transfer_modelled, page_in_modelled) = modelled_seconds(&ok);
    let traced_p50 = med(&|e| e.wall_s);
    let unattributed = |e: &TracedEpoch| (e.wall_s - e.spans.attributed()).max(0.0);
    let failed = epochs.iter().filter(|e| e.stats.is_none()).count() as f64;
    let n = epochs.len() as f64;

    vec![
        ("graph.sample_s", med(&|e| e.spans.sample), "s"),
        ("graph.reg_build_s", med(&|e| e.probe.reg_build_s), "s"),
        ("partition.split_s", med(&|e| e.probe.split_s), "s"),
        (
            "partition.split_calls",
            mean(&|e| e.probe.split_calls as f64),
            "count",
        ),
        ("partition.k", mean(&|e| e.k as f64), "count"),
        (
            "partition.input_nodes",
            stat_mean(&|s| s.total_input_nodes as f64),
            "count",
        ),
        (
            "partition.redundancy",
            mean(&|e| e.probe.redundancy),
            "ratio",
        ),
        ("planner.plan_s", med(&|e| e.probe.plan_s), "s"),
        (
            "planner.other_s",
            med(&|e| e.probe.plan_s - e.probe.split_s),
            "s",
        ),
        (
            "device.drift_max",
            ok.iter().map(|s| s.estimator_drift).fold(0.0, f64::max),
            "ratio",
        ),
        (
            "recovery.oom_retries",
            stat_mean(&|s| s.oom_retries as f64),
            "count",
        ),
        ("nn.forward_s", med(&|e| e.spans.forward), "s"),
        ("nn.backward_s", med(&|e| e.spans.backward), "s"),
        (
            "nn.src_nodes",
            stat_mean(&|s| s.total_src_nodes as f64),
            "count",
        ),
        (
            "tensor.pool_hit_rate",
            ratio_or(sum(&|s| s.pool_hits), pool_total, 0.0),
            "ratio",
        ),
        (
            "data.hit_rate",
            ratio_or(sum(&|s| s.feature_hits), rows, 1.0),
            "ratio",
        ),
        (
            "data.pages_in",
            stat_mean(&|s| s.feature_pages_in as f64),
            "count",
        ),
        (
            "data.page_in_mib",
            stat_mean(&|s| s.feature_page_in_bytes as f64) / MIB,
            "MiB",
        ),
        (
            "data.read_amplification",
            ratio_or(paged_bytes, missed_bytes, 1.0),
            "ratio",
        ),
        (
            "durable.save_s",
            median(&saves.iter().map(|s| s.0).collect::<Vec<_>>()),
            "s",
        ),
        (
            "durable.save_mib",
            saves.iter().map(|s| s.1 as f64).sum::<f64>() / saves.len() as f64 / MIB,
            "MiB",
        ),
        (
            "device.transfer_modelled_s",
            transfer_modelled,
            "modelled_s",
        ),
        ("device.page_in_modelled_s", page_in_modelled, "modelled_s"),
        ("epoch.unattributed_s", med(&unattributed), "s"),
        (
            "epoch.unattributed_frac",
            med(&|e| unattributed(e) / e.wall_s),
            "ratio",
        ),
        ("trace.overhead", traced_p50 / ctx.untraced_p50, "ratio"),
        ("epochs_failed_frac", failed / n, "ratio"),
        ("host.rss_mib", ctx.host_rss_mib, "MiB"),
    ]
}

fn ratio_or(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, epoch: usize, dur_sec: f64) -> SpanRecord {
        SpanRecord {
            kind,
            epoch,
            step: None,
            start_sec: 0.0,
            dur_sec,
        }
    }

    #[test]
    fn span_sums_skip_other_epochs_and_modelled_transfers() {
        let spans = [
            span(SpanKind::Sample, 1, 0.1),
            span(SpanKind::Forward, 1, 0.2),
            span(SpanKind::Forward, 1, 0.3),
            span(SpanKind::Transfer, 1, 9.0),
            span(SpanKind::Backward, 2, 9.0),
        ];
        let sums = SpanSums::of_epoch(&spans, 1);
        assert_eq!(sums.forward, 0.5);
        assert_eq!(sums.backward, 0.0);
        assert!((sums.attributed() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn dense_epochs_report_an_idle_store_and_the_save_probe() {
        let stats = EpochStats {
            feature_hits: 100,
            pool_hits: 3,
            pool_misses: 1,
            ..EpochStats::default()
        };
        let epoch = TracedEpoch {
            wall_s: 2.0,
            stats: Some(stats),
            k: 4,
            save: None,
            spans: SpanSums {
                forward: 0.5,
                backward: 0.5,
                ..SpanSums::default()
            },
            probe: PlanProbe {
                plan_s: 0.3,
                split_s: 0.1,
                split_calls: 1,
                reg_build_s: 0.05,
                redundancy: 1.2,
            },
        };
        let ctx = LayerContext {
            row_bytes: 16,
            untraced_p50: 1.6,
            save_probe: Some((0.01, 1 << 20)),
            host_rss_mib: 100.0,
        };
        let m: std::collections::HashMap<_, _> = layer_metrics(&[epoch], 1, ctx)
            .into_iter()
            .map(|(name, value, _)| (name, value))
            .collect();
        assert_eq!(m["data.hit_rate"], 1.0);
        assert_eq!(m["data.read_amplification"], 1.0);
        assert_eq!(m["data.pages_in"], 0.0);
        assert_eq!(m["tensor.pool_hit_rate"], 0.75);
        assert_eq!(m["durable.save_mib"], 1.0);
        assert!((m["planner.other_s"] - 0.2).abs() < 1e-12);
        assert_eq!(m["epoch.unattributed_s"], 1.0);
        assert_eq!(m["epoch.unattributed_frac"], 0.5);
        assert_eq!(m["trace.overhead"], 1.25);
        assert_eq!(m["epochs_failed_frac"], 0.0);
    }
}
