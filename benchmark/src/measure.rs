//! The two measurement modes: the untraced run (end-to-end metrics over
//! repetitions) and the traced run (one instrumented run, split by
//! layer).

use crate::mem;
use crate::metrics::{end_to_end_unit, per_layer};
use crate::stats::median;
use crate::timing::HookTimes;
use crate::workload::{JobRun, Scenario, Workload, PROTOCOL_KEYS};
use dtn_sim::{load_latest, SimReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up time timed before each repetition: one burst of set-ups runs
/// for at least this long...
const SETUP_BURST: Duration = Duration::from_millis(100);
/// ...or this many set-ups, whichever comes first. Spreading the bursts
/// over the run keeps a sub-millisecond set-up's median from reading only
/// the host's state in the run's first moments.
const SETUP_BURST_MAX: usize = 50;
/// Measured repetitions per untraced run, at least (two, so that every
/// run can check that repetitions agree).
const MIN_REPS: usize = 2;

/// One run's result: the output checks and the metrics, in print order.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable detail (sample counts, digests), printed before the
    /// result line.
    pub detail: Vec<String>,
}

/// A 64-bit FNV-1a digest of every report's full `Debug` rendering: two
/// runs are byte-identical exactly when their digests agree (up to hash
/// collisions), without keeping a report set alive between runs.
pub fn digest(runs: &[JobRun]) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for run in runs {
        let _ = write!(h, "{:?}", run.report);
    }
    h.0
}

/// Simulated outcome of a workload, summed over its jobs.
struct Simulated {
    created: u64,
    delivered: u64,
    delay_sum_s: f64,
    contacts: u64,
}

impl Simulated {
    fn of(runs: &[JobRun]) -> Self {
        let reports = runs.iter().map(|r| &r.report);
        let mut s = Simulated {
            created: 0,
            delivered: 0,
            delay_sum_s: 0.0,
            contacts: 0,
        };
        for r in reports {
            s.created += r.created() as u64;
            s.contacts += r.contacts;
            for o in &r.outcomes {
                if let Some(d) = o.delay() {
                    s.delivered += 1;
                    s.delay_sum_s += d.as_secs_f64();
                }
            }
        }
        s
    }

    fn delivery_rate(&self) -> f64 {
        self.delivered as f64 / self.created.max(1) as f64
    }

    fn avg_delay_s(&self) -> f64 {
        self.delay_sum_s / self.delivered.max(1) as f64
    }

    /// Simulation events driven: contacts plus packet creations.
    fn events(&self) -> u64 {
        self.contacts + self.created
    }
}

/// The checkpoint directory of this process, inside the working
/// directory (the checkout the benchmark runs from).
fn ckpt_root(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_ckpt").join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Deletes this process's checkpoint directory, and the shared parent
/// once no other run uses it.
fn remove_ckpt_root(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Runs the scenario once, catching panics. `Err` carries the message.
fn attempt(
    scenario: &Scenario,
    ckpt: &Path,
    times: Option<&BTreeMap<&'static str, Arc<HookTimes>>>,
) -> Result<(Vec<JobRun>, f64), String> {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| scenario.run(ckpt, times)))
        .map(|runs| (runs, start.elapsed().as_secs_f64()))
        .map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into())
        })
}

/// Tallies attempts and failures; every failure is logged, none retried.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    detail: Vec<String>,
}

impl Checks {
    /// Counts one attempt that must produce `expected` (when given).
    /// Returns the runs and wall time when it succeeded and matched.
    fn run(
        &mut self,
        what: &str,
        result: Result<(Vec<JobRun>, f64), String>,
        expected: Option<u64>,
    ) -> Option<(Vec<JobRun>, f64, u64)> {
        self.attempted += 1;
        match result {
            Err(msg) => {
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
            Ok((runs, wall)) => {
                let d = digest(&runs);
                match expected {
                    Some(e) if e != d => {
                        self.fail(format!(
                            "{what}: report digest {d:016x} differs from {e:016x}"
                        ));
                        None
                    }
                    _ => Some((runs, wall, d)),
                }
            }
        }
    }

    fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.detail.push(format!("FAILED {msg}"));
        self.failed += 1;
    }
}

/// Times one burst of set-ups into `setups`, each scenario freed before
/// the next is built, so every set-up builds into the same warm allocator
/// state.
fn time_setups(workload: Workload, seed: u64, setups: &mut Vec<f64>) {
    let burst = Instant::now();
    for _ in 0..SETUP_BURST_MAX {
        let start = Instant::now();
        let built = workload.setup(seed);
        setups.push(start.elapsed().as_secs_f64());
        drop(built);
        if burst.elapsed() >= SETUP_BURST {
            break;
        }
    }
}

/// The untraced run: set up the scenario, then repeat the workload for
/// `seconds` (at least [`MIN_REPS`] times), timing a burst of set-ups
/// before each repetition, and report medians. A
/// repetition starts only when one more, as long as the median so far,
/// still ends within `seconds`, so a run lasts about `seconds` whatever
/// the repetition length.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let scenario = workload.setup(seed);
    let ckpt = ckpt_root(workload);

    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(u64, Simulated)> = None;
    let start = Instant::now();
    while checks.attempted < MIN_REPS as u64
        || start.elapsed().as_secs_f64() + median(&walls).unwrap_or(0.0) <= seconds
    {
        time_setups(workload, seed, &mut setups);
        mem::reset_peak();
        let result = attempt(&scenario, &ckpt, None);
        let peak = mem::peak_mb().unwrap_or(0.0);
        let rep = checks.attempted;
        let expected = first.as_ref().map(|(d, _)| *d);
        if let Some((runs, wall, d)) = checks.run(&format!("repetition {rep}"), result, expected) {
            walls.push(wall);
            peaks.push(peak);
            checks.detail.push(format!(
                "rep {rep}: wall_s {wall:.4} peak_rss_mb {peak:.1} digest {d:016x}"
            ));
            if first.is_none() {
                first = Some((d, Simulated::of(&runs)));
            }
        }
    }
    if let (Some(reference), Some((d, _))) = (workload.reference(&scenario), &first) {
        let what = match workload {
            Workload::ScaleRandom2Shards => "serial engine reference",
            _ => "run without checkpoints",
        };
        if let Some((_, wall, _)) = checks.run(what, attempt(&reference, &ckpt, None), Some(*d)) {
            checks
                .detail
                .push(format!("{what}: wall_s {wall:.4}, report equal"));
        }
    }
    remove_ckpt_root(&ckpt);

    let wall = median(&walls).unwrap_or(0.0);
    let sim = first.map(|(_, s)| s);
    let values = [
        ("setup_s", median(&setups).unwrap_or(0.0)),
        ("wall_s", wall),
        (
            "events_per_s",
            sim.as_ref()
                .map_or(0.0, |s| s.events() as f64 / wall.max(1e-9)),
        ),
        ("peak_rss_mb", median(&peaks).unwrap_or(0.0)),
        (
            "delivery_rate",
            sim.as_ref().map_or(0.0, Simulated::delivery_rate),
        ),
        (
            "avg_delay_s",
            sim.as_ref().map_or(0.0, Simulated::avg_delay_s),
        ),
        (
            "passed_frac",
            1.0 - checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ];
    let mut detail = vec![
        format!(
            "setup: {} samples, median {:.6} s",
            setups.len(),
            median(&setups).unwrap_or(0.0)
        ),
        format!("wall: {} samples, median {wall:.4} s", walls.len()),
    ];
    detail.append(&mut checks.detail);
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: values
            .into_iter()
            .map(|(name, v)| (name.to_string(), v, end_to_end_unit(name)))
            .collect(),
        detail,
    }
}

/// The traced run: one set-up, an untraced reference run, the same run
/// with every protocol wrapped in the timing layer (its report must be
/// identical), a source-only drain, and the workload's reference run.
pub fn traced(workload: Workload, seed: u64) -> Outcome {
    let mut checks = Checks::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let ckpt = ckpt_root(workload);

    mem::reset_peak();
    let scenario = workload.setup(seed);
    let setup_rss = mem::peak_mb().unwrap_or(0.0);
    m.insert("mem.setup_rss_mb".into(), setup_rss);

    // Untraced reference: wall clock, memory growth and director timing
    // without the wrapper's own overhead.
    mem::reset_peak();
    let plain = checks.run("untraced run", attempt(&scenario, &ckpt, None), None);
    let peak = mem::peak_mb().unwrap_or(0.0);
    m.insert("mem.run_growth_mb".into(), peak - setup_rss);

    let times: BTreeMap<&'static str, Arc<HookTimes>> = PROTOCOL_KEYS
        .iter()
        .map(|&k| (k, Arc::new(HookTimes::default())))
        .collect();
    let expected = plain.as_ref().map(|(_, _, d)| *d);
    let traced = checks.run(
        "traced run",
        attempt(&scenario, &ckpt, Some(&times)),
        expected,
    );
    // Snapshot statistics of the traced run's checkpoint directory.
    let checkpoint = match (&traced, scenario.checkpoint_every) {
        (Some(_), Some(_)) => Some(snapshot_stats(&ckpt, &mut checks)),
        _ => None,
    };
    remove_ckpt_root(&ckpt);

    // Sources alone: fresh copies drained without simulating.
    let start = Instant::now();
    let (mut windows, mut packets) = (0, 0);
    for job in &scenario.jobs {
        let (w, p) = job.drain_sources();
        windows += w;
        packets += p;
    }
    let drain_s = start.elapsed().as_secs_f64();
    m.insert("source.windows".into(), windows as f64);
    m.insert("source.packets".into(), packets as f64);
    m.insert("source.drain_s".into(), drain_s);

    let reference_wall = match (workload.reference(&scenario), expected) {
        (Some(reference), Some(d)) => checks
            .run("reference run", attempt(&reference, &ckpt, None), Some(d))
            .map(|(_, wall, _)| wall),
        _ => None,
    };
    remove_ckpt_root(&ckpt);

    let plain_wall = plain.as_ref().map_or(0.0, |(_, w, _)| *w);
    let traced_wall = traced.as_ref().map_or(0.0, |(_, w, _)| *w);
    let hook_s: f64 = times.values().map(|t| t.top_level_secs()).sum();
    m.insert("engine.self_s".into(), traced_wall - hook_s - drain_s);
    m.insert(
        "trace.overhead_frac".into(),
        traced_wall / plain_wall.max(1e-9) - 1.0,
    );

    let reports: Vec<&SimReport> = traced
        .as_ref()
        .map(|(runs, _, _)| runs.iter().map(|r| &r.report).collect())
        .unwrap_or_default();
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.insert("engine.contacts".into(), sum(|r| r.contacts));
    m.insert("engine.contacts_failed".into(), sum(|r| r.contacts_failed));
    m.insert(
        "engine.contacts_suppressed".into(),
        sum(|r| r.contacts_suppressed),
    );
    m.insert("engine.expired".into(), sum(|r| r.expired));
    m.insert("driver.replications".into(), sum(|r| r.replications));
    let data = sum(|r| r.data_bytes);
    m.insert("driver.data_bytes".into(), data);
    m.insert(
        "driver.utilization".into(),
        data / sum(|r| r.offered_bytes).max(1.0),
    );
    let meta = sum(|r| r.metadata_bytes);
    m.insert("control.metadata_bytes".into(), meta);
    m.insert("control.metadata_frac".into(), meta / data.max(1.0));

    // Director: from the untraced run's shard telemetry.
    let busy: Vec<f64> = plain
        .as_ref()
        .map(|(runs, _, _)| {
            runs.iter()
                .flat_map(|r| r.shards.iter().map(|s| s.busy.as_secs_f64()))
                .collect()
        })
        .unwrap_or_default();
    let (busy_sum, busy_max) = (
        busy.iter().sum::<f64>(),
        busy.iter().cloned().fold(0.0, f64::max),
    );
    let sharded = !busy.is_empty();
    m.insert("shard.busy_s".into(), busy_sum);
    m.insert(
        "shard.imbalance".into(),
        if sharded {
            busy_max / (busy_sum / busy.len() as f64).max(1e-12)
        } else {
            0.0
        },
    );
    m.insert(
        "shard.blocked_s".into(),
        if sharded {
            busy.len() as f64 * plain_wall - busy_sum
        } else {
            0.0
        },
    );
    m.insert(
        "director.serial_s".into(),
        if sharded { plain_wall - busy_max } else { 0.0 },
    );

    let (snapshots, bytes, load_s) = checkpoint.unwrap_or((0.0, 0.0, 0.0));
    m.insert("ckpt.snapshots".into(), snapshots);
    m.insert("ckpt.bytes_per_snapshot".into(), bytes);
    m.insert("ckpt.load_latest_s".into(), load_s);
    m.insert(
        "ckpt.overhead_s".into(),
        match (workload.checkpoints(), reference_wall) {
            (true, Some(off)) => plain_wall - off,
            _ => 0.0,
        },
    );

    for (key, t) in &times {
        let p = |suffix: &str| format!("routing.{key}.{suffix}");
        let us = |q| {
            t.on_contact_latency
                .percentile_ns(q)
                .map_or(0.0, |ns| ns / 1e3)
        };
        m.insert(p("on_contact_s"), t.on_contact.secs());
        m.insert(p("on_contact_calls"), t.on_contact.calls() as f64);
        m.insert(p("on_contact_p50_us"), us(0.5));
        m.insert(p("on_contact_p99_us"), us(0.99));
        m.insert(p("on_packet_created_s"), t.on_packet_created.secs());
        m.insert(p("make_room_s"), t.make_room.secs());
        m.insert(p("make_room_calls"), t.make_room.calls() as f64);
        m.insert(p("on_packet_expired_s"), t.on_packet_expired.secs());
        m.insert(p("on_shard_epoch_s"), t.on_shard_epoch.secs());
        m.insert(p("save_state_s"), t.save_state.secs());
        m.insert(p("save_state_calls"), t.save_state.calls() as f64);
    }

    let mut detail = vec![format!(
        "untraced wall_s {plain_wall:.4}, traced wall_s {traced_wall:.4}, hooks {hook_s:.4} s"
    )];
    detail.extend(
        times
            .iter()
            .filter(|(_, t)| t.on_contact.calls() > 0)
            .map(|(key, t)| {
                format!(
                    "routing.{key}: {} on_contact samples (p50 needs 20, p99 needs 1000)",
                    t.on_contact.calls()
                )
            }),
    );
    detail.append(&mut checks.detail);
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: per_layer()
            .into_iter()
            .map(|layer| {
                let v = m
                    .remove(&layer.name)
                    .unwrap_or_else(|| panic!("traced run computed no {}", layer.name));
                (layer.name, v, layer.unit)
            })
            .collect(),
        detail,
    }
}

/// Snapshot statistics of a checkpointed run's directory: snapshots
/// written (from the newest sequence number), mean bytes of the files
/// kept, and the time `load_latest` takes to find and decode the newest.
/// A run that wrote no snapshot, or left one `load_latest` cannot read,
/// fails its check.
fn snapshot_stats(root: &Path, checks: &mut Checks) -> (f64, f64, f64) {
    let (mut written, mut bytes, mut files, mut load_s) = (0u64, 0u64, 0u64, 0.0);
    for dir in std::fs::read_dir(root).into_iter().flatten().flatten() {
        for entry in std::fs::read_dir(dir.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".rsnp"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                written = written.max(seq + 1);
                bytes += entry.metadata().map_or(0, |m| m.len());
                files += 1;
            }
        }
        let start = Instant::now();
        match load_latest(&dir.path()) {
            Ok(Some(loaded)) if loaded.skipped.is_empty() => {}
            other => checks.fail(format!(
                "load_latest({}) found no clean snapshot: {:?}",
                dir.path().display(),
                other.map(|o| o.map(|l| l.path))
            )),
        }
        load_s += start.elapsed().as_secs_f64();
    }
    if written == 0 {
        checks.fail("checkpointed run wrote no snapshot".into());
    }
    (written as f64, bytes as f64 / files.max(1) as f64, load_s)
}
