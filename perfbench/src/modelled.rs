//! The only place the benchmark reads seconds that the simulated device,
//! PCIe link or NVMe store *model* rather than measure. They are reported
//! under `device.*_modelled_s` and are never added to a wall metric.

use betty::EpochStats;

/// Mean modelled seconds per epoch: `(transfer, page_in)`.
pub fn modelled_seconds(epochs: &[EpochStats]) -> (f64, f64) {
    if epochs.is_empty() {
        return (0.0, 0.0);
    }
    let n = epochs.len() as f64;
    let transfer: f64 = epochs.iter().map(|e| e.transfer_sec).sum();
    let page_in: f64 = epochs.iter().map(|e| e.page_in_sec).sum();
    (transfer / n, page_in / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every benchmark source file except this one.
    const OTHER_SOURCES: [(&str, &str); 6] = [
        ("main.rs", include_str!("main.rs")),
        ("stats.rs", include_str!("stats.rs")),
        ("workload.rs", include_str!("workload.rs")),
        ("probe.rs", include_str!("probe.rs")),
        ("layers.rs", include_str!("layers.rs")),
        ("fingerprint.rs", include_str!("fingerprint.rs")),
    ];

    #[test]
    fn only_this_file_reads_modelled_seconds_and_none_reads_their_sum() {
        // Built at run time so the test's own text does not match.
        let [summed, modelled @ ..] =
            ["total", "transfer", "page_in", "repair", "compute"].map(|f| format!("{f}_sec"));
        assert!(!include_str!("modelled.rs").contains(summed.as_str()));
        for (file, src) in OTHER_SOURCES {
            for field in modelled.iter().chain([&summed]) {
                assert!(
                    !src.contains(field.as_str()),
                    "{file} reads `{field}`: wall metrics come only from bench-side timers"
                );
            }
        }
    }

    #[test]
    fn means_per_epoch() {
        let a = EpochStats {
            transfer_sec: 1.0,
            page_in_sec: 0.5,
            ..EpochStats::default()
        };
        let b = EpochStats {
            transfer_sec: 3.0,
            ..EpochStats::default()
        };
        assert_eq!(modelled_seconds(&[a, b]), (2.0, 0.25));
        assert_eq!(modelled_seconds(&[]), (0.0, 0.0));
    }
}
