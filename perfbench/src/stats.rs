//! Order statistics and the end-to-end wall metrics.
//!
//! Every wall metric here is computed from [`EpochSample`]s, which carry
//! only what the benchmark's own timers measured. Seconds that the
//! simulated device, link or store *model* live in `modelled.rs` and never
//! reach these functions.

/// One timed call to a workload's epoch entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Wall seconds of the call, from a bench-side `Instant`.
    pub wall_s: f64,
    /// Whether the call returned an epoch (false: it returned an error).
    pub ok: bool,
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least `above` samples strictly above it in rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / (n − 1)` for 0-based `rank`.
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// The sample at 0-based sorted rank `n − 1 − above`, or `None` when fewer
/// than `above + 1` samples exist.
pub fn tail(values: &[f64], above: usize) -> Option<Tail> {
    let n = values.len();
    if n <= above {
        return None;
    }
    let rank = n - 1 - above;
    Some(Tail {
        value: sorted(values)[rank],
        percentile: if n == 1 {
            0.0
        } else {
            100.0 * rank as f64 / (n - 1) as f64
        },
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing sample"));
    v
}

/// Samples needed above the reported tail.
pub const TAIL_ABOVE: usize = 10;

/// Consecutive timed epochs per throughput block. The host slows whole
/// stretches of epochs at a time, so throughput is taken per block and
/// the median block is reported: a slow spell moves a few blocks, not the
/// result.
pub const BLOCK_EPOCHS: usize = 5;

/// Wall metrics of a timed window of epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallMetrics {
    /// Median epoch wall seconds.
    pub epoch_s_p50: f64,
    /// The tail of epoch wall seconds.
    pub epoch_s_tail: Tail,
    /// Training seeds × completed epochs ÷ summed epoch wall seconds,
    /// per block of [`BLOCK_EPOCHS`] consecutive epochs; the median block.
    pub train_nodes_per_s: f64,
}

/// Computes the wall metrics; `None` when the window is shorter than the
/// tail needs. Epochs past the last whole block count in the percentiles
/// but not in the throughput.
pub fn wall_metrics(samples: &[EpochSample], train_seeds: usize) -> Option<WallMetrics> {
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let epoch_s_tail = tail(&walls, TAIL_ABOVE)?;
    let blocks: Vec<f64> = samples
        .chunks_exact(BLOCK_EPOCHS)
        .map(|block| {
            let completed = block.iter().filter(|s| s.ok).count();
            let summed: f64 = block.iter().map(|s| s.wall_s).sum();
            (train_seeds * completed) as f64 / summed
        })
        .collect();
    Some(WallMetrics {
        epoch_s_p50: median(&walls),
        epoch_s_tail,
        train_nodes_per_s: median(&blocks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let values: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 10.0);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.samples, 21);
        assert!(tail(&values[..10], 10).is_none());
        assert_eq!(tail(&values[..11], 10).unwrap().value, 0.0);
    }

    #[test]
    fn throughput_counts_only_completed_epochs_but_all_time() {
        let mut samples = vec![
            EpochSample {
                wall_s: 0.5,
                ok: true
            };
            3 * BLOCK_EPOCHS + 1
        ];
        samples[0].ok = false;
        samples[1].ok = false;
        samples[BLOCK_EPOCHS].ok = false;
        let m = wall_metrics(&samples, 100).unwrap();
        // Blocks complete 3, 4 and 5 of their 5 epochs in 2.5 s each.
        assert!((m.train_nodes_per_s - 400.0 / 2.5).abs() < 1e-9);
        assert_eq!(m.epoch_s_p50, 0.5);
    }

    #[test]
    fn throughput_is_the_median_block_so_a_slow_spell_does_not_move_it() {
        let mut samples = vec![
            EpochSample {
                wall_s: 0.5,
                ok: true
            };
            3 * BLOCK_EPOCHS
        ];
        for s in &mut samples[..BLOCK_EPOCHS] {
            s.wall_s = 5.0;
        }
        let m = wall_metrics(&samples, 100).unwrap();
        assert!((m.train_nodes_per_s - 200.0).abs() < 1e-9);
    }
}
