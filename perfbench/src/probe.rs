//! Outside-in timing of the partition, REG and planner layers.
//!
//! The timed runner's planning happens inside one library call, so the
//! traced run replays it on a second runner built from the same seed: that
//! runner samples the same batch sequence (its sampler stream is seeded
//! identically and advances once per epoch), and its planner is driven
//! through its public calls with the split wrapped in a timer. The timed
//! runner's random streams are never touched.

use std::cell::Cell;
use std::time::Instant;

use betty::{build_strategy, Runner};
use betty_data::Dataset;
use betty_graph::{Batch, NodeId};
use betty_partition::{input_redundancy, OutputPartitioner};

use crate::workload::Workload;

/// The dependants-set cap of `RegPartitioner::new`, so the timed REG build
/// is the one Betty's split performs.
const REG_HUB_CAP: usize = 32;

/// An output partitioner that times every split of the one it wraps.
struct TimedSplit {
    inner: Box<dyn OutputPartitioner>,
    secs: Cell<f64>,
    calls: Cell<usize>,
}

impl OutputPartitioner for TimedSplit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>> {
        let started = Instant::now();
        let parts = self.inner.split_outputs(batch, k);
        self.secs
            .set(self.secs.get() + started.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
        parts
    }
}

/// One epoch's planning, measured from outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanProbe {
    /// Wall seconds of the planner call.
    pub plan_s: f64,
    /// Wall seconds inside `split_outputs`, summed over the call.
    pub split_s: f64,
    /// `split_outputs` calls the planner made.
    pub split_calls: usize,
    /// Wall seconds of one REG build on the same batch.
    pub reg_build_s: f64,
    /// Input redundancy of the plan's micro-batches.
    pub redundancy: f64,
}

/// Replays the planning of a workload's epochs on a runner of its own.
pub struct Prober {
    workload: Workload,
    runner: Runner,
    seed: u64,
}

impl Prober {
    pub fn new(workload: Workload, dataset: &Dataset, seed: u64) -> Self {
        Self {
            workload,
            runner: Runner::new(dataset, &workload.config(), seed),
            seed,
        }
    }

    /// Samples the next epoch's batch and plans it as the timed runner's
    /// first attempt does.
    pub fn next_epoch(&mut self, dataset: &Dataset) -> Result<PlanProbe, String> {
        let batch = self.runner.sample_full_batch(dataset);
        let split = TimedSplit {
            inner: build_strategy(self.workload.strategy(), self.seed),
            secs: Cell::new(0.0),
            calls: Cell::new(0),
        };
        let planner = self.runner.planner();
        let started = Instant::now();
        let plan = match self.workload.fixed_k() {
            Some(k) => planner.plan_fixed(&batch, &split, k),
            None => planner
                .plan_with_capacity(&batch, &split, 1, planner.capacity_bytes())
                .map_err(|e| format!("planning probe: {e}"))?,
        };
        let plan_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let reg = betty_graph::dependency_reg(&batch, REG_HUB_CAP);
        let reg_build_s = started.elapsed().as_secs_f64();
        std::hint::black_box(reg);
        Ok(PlanProbe {
            plan_s,
            split_s: split.secs.get(),
            split_calls: split.calls.get(),
            reg_build_s,
            redundancy: input_redundancy(&plan.micro_batches).redundancy_ratio(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty::StrategyKind;
    use betty_graph::Block;

    #[test]
    fn timed_split_counts_calls_and_keeps_the_split() {
        let batch = Batch::new(vec![Block::new(
            (0..6).collect(),
            &[(10, 0), (10, 1), (11, 2), (11, 3), (12, 4), (12, 5)],
        )]);
        let split = TimedSplit {
            inner: build_strategy(StrategyKind::Betty, 3),
            secs: Cell::new(0.0),
            calls: Cell::new(0),
        };
        let plain = build_strategy(StrategyKind::Betty, 3).split_outputs(&batch, 3);
        assert_eq!(split.split_outputs(&batch, 3), plain);
        split.split_outputs(&batch, 2);
        assert_eq!(split.calls.get(), 2);
        assert!(split.secs.get() > 0.0);
    }
}
