//! Betty's repository benchmark: end-to-end epoch metrics per workload,
//! and a separate traced run that breaks the epoch into its layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload products-betty-auto --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are the machine fingerprint and a readable report. The exit
//! code is non-zero when the correctness gate fails. See
//! `perfbench/README.md` for the workloads, the metrics and the load model.

mod fingerprint;
mod layers;
mod modelled;
mod probe;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use betty_data::Dataset;

use crate::fingerprint::Fingerprint;
use crate::layers::{layer_metrics, LayerContext, SpanSums, TracedEpoch};
use crate::probe::Prober;
use crate::stats::{median, wall_metrics, EpochSample, TAIL_ABOVE};
use crate::workload::{timed_save, EpochRun, ScratchDir, Session, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Leading epochs of every session that fill the tensor pool and the page
/// cache; they are gated but not timed.
const WARMUP_EPOCHS: usize = 1;
const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// The per-epoch results the gate compares across trainers: the loss bits
/// (or the error), K and the deterministic counters.
type Outcome = (Result<u64, String>, usize, [u64; 5]);

fn outcome(run: &EpochRun) -> Outcome {
    let result = run
        .result
        .as_ref()
        .map(|s| s.loss.to_bits())
        .map_err(Clone::clone);
    let counters = run.result.as_ref().map_or([0; 5], |s| {
        [
            s.max_peak_bytes as u64,
            s.total_input_nodes as u64,
            s.total_src_nodes as u64,
            s.oom_retries as u64,
            s.feature_pages_in,
        ]
    });
    (result, run.k, counters)
}

/// One epoch of a loop, with the wall seconds the bench timed around it.
struct Timed {
    wall_s: f64,
    run: EpochRun,
}

/// Epoch counts over every loop of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

struct Bench {
    workload: Workload,
    seed: u64,
    dataset: Dataset,
    scratch: ScratchDir,
    /// The session built during set-up, handed to the first loop.
    first: Option<Session>,
    tally: Tally,
}

impl Bench {
    /// Builds the dataset and the first trainer `SETUP_REPS` times from
    /// the workload seed; returns the bench and the set-up seconds.
    fn set_up(workload: Workload, seed: u64) -> Result<(Self, Vec<f64>), String> {
        let scratch = ScratchDir::create(workload)?;
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut built = None;
        for _ in 0..SETUP_REPS {
            drop(built.take());
            let _ = std::fs::remove_dir_all(scratch.path().join("features"));
            let started = Instant::now();
            let dataset = workload.dataset(seed, scratch.path())?;
            let session = Session::new(workload, &dataset, seed, scratch.path());
            times.push(started.elapsed().as_secs_f64());
            built = Some((dataset, session));
        }
        let (dataset, session) = built.expect("SETUP_REPS > 0");
        let bench = Self {
            workload,
            seed,
            dataset,
            scratch,
            first: Some(session),
            tally: Tally::default(),
        };
        Ok((bench, times))
    }

    /// A fresh trainer at the workload seed, over an empty page cache.
    fn session(&mut self) -> Result<Session, String> {
        if let Some(s) = self.first.take() {
            return Ok(s);
        }
        self.workload
            .reset_cache(&mut self.dataset, self.scratch.path())?;
        Ok(Session::new(
            self.workload,
            &self.dataset,
            self.seed,
            self.scratch.path(),
        ))
    }

    /// The closed loop: `session` runs epoch after epoch, each starting
    /// when the last returned, until `budget` has passed and at least
    /// `min_epochs` have run.
    fn run_loop(
        &mut self,
        session: &mut Session,
        budget: Duration,
        min_epochs: usize,
    ) -> Vec<Timed> {
        let started = Instant::now();
        let mut epochs = Vec::new();
        while epochs.len() < min_epochs || started.elapsed() < budget {
            let t = Instant::now();
            let run = session.epoch(&self.dataset);
            let wall_s = t.elapsed().as_secs_f64();
            self.tally.attempted += 1;
            if run.result.is_err() {
                self.tally.failed += 1;
            }
            epochs.push(Timed { wall_s, run });
        }
        epochs
    }

    /// Fewest epochs a timed loop runs: the quality epochs the gate
    /// compares, and enough timed epochs for the tail.
    fn min_epochs(&self) -> usize {
        self.workload
            .quality_epochs()
            .max(WARMUP_EPOCHS + TAIL_ABOVE + 1)
    }
}

/// The epochs past warm-up, which are the ones timed.
fn timed(epochs: &[Timed]) -> &[Timed] {
    &epochs[WARMUP_EPOCHS.min(epochs.len())..]
}

fn loss_of(t: &Timed) -> Option<f64> {
    t.run.result.as_ref().ok().map(|s| s.loss)
}

/// The correctness gate over two loops that started from the same seed:
/// their common epochs agree bit for bit, every loss is finite, and the
/// loss falls over the quality epochs.
fn gate(workload: Workload, a: &[Timed], b: &[Timed]) -> Vec<String> {
    let mut problems = Vec::new();
    for (epoch, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (outcome(&x.run), outcome(&y.run));
        if x != y {
            problems.push(format!(
                "epoch {epoch} differs between repeats: {x:?} vs {y:?}"
            ));
        }
    }
    if let Some(bad) = a
        .iter()
        .chain(b)
        .filter_map(loss_of)
        .find(|l| !l.is_finite())
    {
        problems.push(format!("non-finite loss {bad}"));
    }
    let q = workload.quality_epochs();
    match (a.first().and_then(loss_of), a.get(q - 1).and_then(loss_of)) {
        (Some(first), Some(last)) if last < first => {}
        (first, last) => problems.push(format!(
            "loss did not fall over the first {q} epochs ({first:?} -> {last:?})"
        )),
    }
    problems
}

type Metric = (&'static str, f64, &'static str);

/// The untraced run: a fresh trainer runs the quality epochs, which give
/// `val_acc` and `loss_final`; then another runs the timed loop, and the
/// gate compares the two.
fn end_to_end(
    bench: &mut Bench,
    budget: Duration,
    setup: &[f64],
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let w = bench.workload;
    let q = w.quality_epochs();
    let mut quality = bench.session()?;
    let quality_epochs = bench.run_loop(&mut quality, Duration::ZERO, q);
    let val_acc = quality.val_acc(&bench.dataset);
    drop(quality);
    let mut session = bench.session()?;
    let epochs = bench.run_loop(&mut session, budget, bench.min_epochs());
    drop(session);

    let mut problems = gate(w, &epochs, &quality_epochs);
    let chance = 100.0 / bench.dataset.num_classes as f64;
    if val_acc.is_nan() || val_acc <= chance {
        problems.push(format!(
            "val_acc {val_acc:.2}% is not above chance {chance:.2}%"
        ));
    }
    let samples: Vec<EpochSample> = timed(&epochs)
        .iter()
        .map(|t| EpochSample {
            wall_s: t.wall_s,
            ok: t.run.result.is_ok(),
        })
        .collect();
    let wall = wall_metrics(&samples, bench.dataset.train_idx.len()).ok_or(format!(
        "only {} timed epochs; the tail needs more than {TAIL_ABOVE}",
        samples.len()
    ))?;
    let tail = wall.epoch_s_tail;
    println!(
        "epoch_s_tail is p{:.1} of {} timed epochs ({TAIL_ABOVE} above it)",
        tail.percentile, tail.samples
    );
    let loss_final = loss_of(&quality_epochs[q - 1]).unwrap_or(f64::NAN);
    // Over the loop's first epochs only, which every run reaches, so the
    // deterministic ledger peak repeats exactly at a seed.
    let peak_bytes = epochs[..bench.min_epochs()]
        .iter()
        .filter_map(|t| t.run.result.as_ref().ok())
        .map(|s| s.max_peak_bytes)
        .max()
        .unwrap_or(0);
    let peak_mib = peak_bytes as f64 / MIB;
    let metrics = vec![
        ("epoch_s_p50", wall.epoch_s_p50, "s"),
        ("epoch_s_tail", tail.value, "s"),
        ("train_nodes_per_s", wall.train_nodes_per_s, "nodes/s"),
        ("setup_s", median(setup), "s"),
        ("peak_device_mib", peak_mib, "MiB"),
        ("loss_final", loss_final, "nats"),
        ("val_acc", val_acc, "%"),
    ];
    Ok((metrics, problems))
}

/// The traced run: an untraced loop and a traced one of equal budget,
/// joined with the runner's spans and a planning probe of the same batches.
fn per_layer(bench: &mut Bench, budget: Duration) -> Result<(Vec<Metric>, Vec<String>), String> {
    let w = bench.workload;
    let q = w.quality_epochs();
    let started = Instant::now();
    let mut session = bench.session()?;
    let mut untraced = bench.run_loop(&mut session, Duration::ZERO, q);
    // Peak RSS grows with the epochs a trainer has run, so it is read
    // after a fixed number of them, before anything is traced.
    let host_rss_mib = peak_rss_mib()?;
    let rest = (budget / 2).saturating_sub(started.elapsed());
    untraced.extend(bench.run_loop(&mut session, rest, 0));
    drop(session);
    let mut session = bench.session()?;
    session.runner_mut().enable_tracing();
    let traced = bench.run_loop(&mut session, budget / 2, q);
    let trace = session
        .runner_mut()
        .take_trace()
        .ok_or("tracing was enabled but no trace was recorded")?;
    let save_probe = if session.checkpoints_each_epoch() {
        None
    } else {
        let plan = betty::CheckpointPlan::new(bench.scratch.path().join("save-probe"), 1);
        Some(timed_save(session.runner(), &plan, 0)?)
    };
    drop(session);

    let mut prober = Prober::new(w, &bench.dataset, bench.seed);
    let mut layers = Vec::with_capacity(traced.len());
    for (epoch, t) in traced.iter().enumerate() {
        let probe = prober.next_epoch(&bench.dataset)?;
        if epoch < WARMUP_EPOCHS {
            continue;
        }
        layers.push(TracedEpoch {
            wall_s: t.wall_s,
            stats: t.run.result.as_ref().ok().copied(),
            k: t.run.k,
            save: t.run.save,
            spans: SpanSums::of_epoch(trace.spans(), epoch),
            probe,
        });
    }
    let untraced_walls: Vec<f64> = timed(&untraced).iter().map(|t| t.wall_s).collect();
    let ctx = LayerContext {
        row_bytes: w.row_bytes(&bench.dataset),
        untraced_p50: median(&untraced_walls),
        save_probe,
        host_rss_mib,
    };
    println!(
        "traced: {} timed epochs, untraced: {}",
        layers.len(),
        untraced_walls.len()
    );
    let metrics = layer_metrics(&layers, q - WARMUP_EPOCHS, ctx);
    Ok((metrics, gate(w, &untraced, &traced)))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>, bool), String> {
    let (mut bench, setup) = Bench::set_up(args.workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let (metrics, problems) = if args.trace {
        per_layer(&mut bench, budget)?
    } else {
        end_to_end(&mut bench, budget, &setup)?
    };
    for p in &problems {
        eprintln!("correctness gate: {p}");
    }
    Ok((
        std::mem::take(&mut bench.tally),
        metrics,
        problems.is_empty(),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "fingerprint {}",
        Fingerprint::capture(w.name(), args.seed, w.config().precision).to_json()
    );
    let (tally, metrics, correct) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{:<28} {value:>16.6} {unit}", name);
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a non-finite value already failed `correct`.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty::EpochStats;

    fn epochs(losses: &[f64]) -> Vec<Timed> {
        losses
            .iter()
            .map(|&loss| Timed {
                wall_s: 0.1,
                run: EpochRun {
                    result: Ok(EpochStats {
                        loss,
                        ..EpochStats::default()
                    }),
                    k: 4,
                    save: None,
                },
            })
            .collect()
    }

    #[test]
    fn gate_passes_identical_learning_repeats() {
        let w = Workload::RedditGatRange;
        let losses: Vec<f64> = (0..w.quality_epochs())
            .map(|e| 3.0 - e as f64 * 0.1)
            .collect();
        assert!(gate(w, &epochs(&losses), &epochs(&losses)).is_empty());
    }

    #[test]
    fn gate_flags_bit_drift_non_finite_and_flat_loss() {
        let w = Workload::RedditGatRange;
        let q = w.quality_epochs();
        let falling: Vec<f64> = (0..q).map(|e| 3.0 - e as f64 * 0.1).collect();
        let mut drifted = falling.clone();
        drifted[2] = f64::from_bits(drifted[2].to_bits() + 1);
        assert_eq!(gate(w, &epochs(&falling), &epochs(&drifted)).len(), 1);

        let mut poisoned = falling.clone();
        poisoned[1] = f64::NAN;
        let problems = gate(w, &epochs(&poisoned), &epochs(&poisoned));
        assert!(
            problems.iter().any(|p| p.contains("non-finite")),
            "{problems:?}"
        );

        let flat = vec![2.0; q];
        assert_eq!(gate(w, &epochs(&flat), &epochs(&flat)).len(), 1);
    }
}
