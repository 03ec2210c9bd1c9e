//! The four benchmark workloads: their pinned parameters, their set-up
//! (scenario construction before the first event) and their execution
//! through the simulator's public run entry points.

use crate::timing::{HookTimes, TimedRouting};
use dtn_mobility::{RegionalFleet, ScaleFleet};
use dtn_sim::par::Lookahead;
use dtn_sim::{
    run_sharded_hooked, run_streaming_hooked, Checkpointer, Partition, Routing, RunHooks,
    ShardStats, SimConfig, SimReport, Time, TimeDelta,
};
use rapid_bench::runner::{ContactsSpec, PacketsSpec, RunSpec};
use rapid_bench::trace_exp::WARMUP_DAYS;
use rapid_bench::{Proto, TraceLab};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Seed of every workload's contact data: the synthetic DieselNet fleet
/// that stands in for the paper's recorded trace, and the compiled
/// regional plans. Contacts are fixed, like a recorded dataset; the
/// benchmark seed draws the packet workload over them and seeds the
/// simulation. (Fleet seeds change a trace day's bus and contact counts
/// several-fold, and a 2500-route plan's seed moves RAPID's delivery
/// rate by 15%, which would make the inputs, not the code, dominate the
/// spread over seeds.)
pub const DATASET_SEED: u64 = 7;
/// Packets per hour per destination: the top of the Fig. 4–5 load axis.
pub const TRACE_LOAD_PER_HOUR: f64 = 40.0;
/// Snapshot cadence of the checkpointed workload, simulated seconds.
pub const CKPT_EVERY_S: u64 = 300;
/// Snapshots the checkpointed workload's `Checkpointer` keeps on disk.
pub const CKPT_KEEP: usize = 2;
/// Packet size of the scale shapes (1 KB, as in the rest of the harness).
const PACKET_BYTES: u64 = 1024;

/// The workload names. `BENCHMARK.json` lists `trace_highload` and
/// `regional_rapid_ckpt`; the two scale shapes stay runnable but ungated
/// (see README.md).
pub const NAMES: [&str; 4] = [
    "trace_highload",
    "scale_random",
    "scale_random_2shards",
    "regional_rapid_ckpt",
];

/// Metric key of each protocol the workloads run (`routing.<key>.*`).
pub const PROTOCOL_KEYS: [&str; 4] = ["rapid", "maxprop", "spray_wait", "random"];

fn protocol_key(proto: Proto) -> &'static str {
    match proto {
        Proto::RapidAvg => "rapid",
        Proto::MaxProp => "maxprop",
        Proto::SprayWait => "spray_wait",
        Proto::Random => "random",
        other => panic!("no benchmark workload runs {other:?}"),
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §6.2 trace scenario at 40 packets/hour per destination; the
    /// four-protocol comparison set one after another on one thread.
    TraceHighload,
    /// The 12M-window regional shape, Random, serial engine.
    ScaleRandom,
    /// The same inputs on the sharded runtime at 2 shards.
    ScaleRandom2Shards,
    /// 200-node regional fleet, in-band RAPID at 2 shards, checkpointed.
    RegionalRapidCkpt,
}

/// The regional fleet of the scale workloads: 100k nodes, 12M windows.
fn scale_fleet() -> RegionalFleet {
    RegionalFleet {
        fleet: ScaleFleet {
            nodes: 100_000,
            contacts: 12_000_000,
            opportunity_bytes: 2 * 1024,
            contact_duration: TimeDelta::ZERO,
            horizon: Time::from_secs(7200),
            hubs: 64,
            hub_bias: 0.3,
        },
        regions: 64,
        locality: 0.95,
    }
}

/// The regional fleet of the checkpointed RAPID workload: 200 nodes,
/// 250k windows. (At 400 nodes RAPID's n² rows per node fill 520 MB, and
/// every contact and snapshot streams through them, so wall time followed
/// the host's memory contention; see README.md.)
fn rapid_fleet() -> RegionalFleet {
    RegionalFleet {
        fleet: ScaleFleet {
            nodes: 200,
            contacts: 250_000,
            opportunity_bytes: 2 * 1024,
            contact_duration: TimeDelta::ZERO,
            horizon: Time::from_secs(7200),
            hubs: 16,
            hub_bias: 0.3,
        },
        regions: 8,
        locality: 0.95,
    }
}

/// Expected packet creations of the scale workloads.
const SCALE_PACKETS: u64 = 8000;
/// Expected packet creations of the checkpointed RAPID workload.
const RAPID_PACKETS: u64 = 2000;
/// Shard count of the sharded workloads.
const SHARDS: usize = 2;

impl Workload {
    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "trace_highload" => Self::TraceHighload,
            "scale_random" => Self::ScaleRandom,
            "scale_random_2shards" => Self::ScaleRandom2Shards,
            "regional_rapid_ckpt" => Self::RegionalRapidCkpt,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::TraceHighload => NAMES[0],
            Self::ScaleRandom => NAMES[1],
            Self::ScaleRandom2Shards => NAMES[2],
            Self::RegionalRapidCkpt => NAMES[3],
        }
    }

    /// Whether the workload writes checkpoints.
    pub fn checkpoints(self) -> bool {
        self == Self::RegionalRapidCkpt
    }

    /// The pinned parameters, for the result manifest.
    pub fn params(self) -> Vec<(&'static str, String)> {
        let executor = |shards: usize| {
            vec![
                ("shards", shards.to_string()),
                ("intra_jobs", "1".to_string()),
                ("jobs", "1".to_string()),
                ("lookahead", format!("{:?}", Lookahead::default())),
                ("kernel", format!("{:?}", rapid_core::Kernel::detect())),
            ]
        };
        let regional = |rf: RegionalFleet, packets: u64, proto: Proto, shards: usize| {
            let mut p = vec![
                ("nodes", rf.fleet.nodes.to_string()),
                ("windows", rf.fleet.contacts.to_string()),
                ("routes", (rf.fleet.contacts / 200).to_string()),
                ("regions", rf.regions.to_string()),
                ("locality", rf.locality.to_string()),
                ("hubs", rf.fleet.hubs.to_string()),
                ("hub_bias", rf.fleet.hub_bias.to_string()),
                ("opportunity_bytes", rf.fleet.opportunity_bytes.to_string()),
                ("packets", packets.to_string()),
                ("packet_bytes", PACKET_BYTES.to_string()),
                ("buffer_bytes", (16 * 1024).to_string()),
                ("ttl_s", "900".to_string()),
                ("horizon_s", rf.fleet.horizon.as_secs_f64().to_string()),
                ("protocols", proto.label()),
            ];
            p.extend(executor(shards));
            p
        };
        let mut params = match self {
            Self::TraceHighload => {
                let mut p = vec![
                    ("calibration", "TraceLab::load_sweep".to_string()),
                    ("day", WARMUP_DAYS.to_string()),
                    ("warmup_days", WARMUP_DAYS.to_string()),
                    ("load_per_dest_per_hour", TRACE_LOAD_PER_HOUR.to_string()),
                    (
                        "protocols",
                        Proto::comparison_set().map(|p| p.label()).join(","),
                    ),
                ];
                p.extend(executor(1));
                p
            }
            Self::ScaleRandom => regional(scale_fleet(), SCALE_PACKETS, Proto::Random, 1),
            Self::ScaleRandom2Shards => {
                regional(scale_fleet(), SCALE_PACKETS, Proto::Random, SHARDS)
            }
            Self::RegionalRapidCkpt => {
                regional(rapid_fleet(), RAPID_PACKETS, Proto::RapidAvg, SHARDS)
            }
        };
        let ckpt = if self.checkpoints() {
            format!("every {CKPT_EVERY_S} s simulated, keep {CKPT_KEEP}")
        } else {
            "off".to_string()
        };
        params.push(("checkpointing", ckpt));
        params.push(("dataset_seed", DATASET_SEED.to_string()));
        params
    }

    /// Builds the scenario for `seed`: compiles the trace day or the
    /// regional plan, draws the workload, and constructs each protocol
    /// once. Everything before the first event.
    pub fn setup(self, seed: u64) -> Scenario {
        let scenario = match self {
            Self::TraceHighload => {
                let lab = TraceLab::load_sweep(DATASET_SEED);
                // The workload draw index; folding keeps every bit of
                // the seed in play.
                let draw = (seed ^ (seed >> 32)) as u32;
                let spec = lab.day_spec(WARMUP_DAYS, TRACE_LOAD_PER_HOUR, draw, None);
                Scenario {
                    jobs: Proto::comparison_set()
                        .into_iter()
                        .map(|proto| Job::from_spec(&spec, proto))
                        .collect(),
                    checkpoint_every: None,
                }
            }
            Self::ScaleRandom => {
                regional_scenario(scale_fleet(), SCALE_PACKETS, Proto::Random, 1, seed)
            }
            Self::ScaleRandom2Shards => {
                regional_scenario(scale_fleet(), SCALE_PACKETS, Proto::Random, SHARDS, seed)
            }
            Self::RegionalRapidCkpt => Scenario {
                checkpoint_every: Some(TimeDelta::from_secs(CKPT_EVERY_S)),
                ..regional_scenario(rapid_fleet(), RAPID_PACKETS, Proto::RapidAvg, SHARDS, seed)
            },
        };
        for job in &scenario.jobs {
            assert!(!job.protocol().name().is_empty());
        }
        scenario
    }

    /// The run this workload's report must equal, when it has one: the
    /// serial engine for the sharded Random shape, and the run without
    /// checkpoints for the checkpointed shape.
    pub fn reference(self, scenario: &Scenario) -> Option<Scenario> {
        match self {
            Self::ScaleRandom2Shards => Some(Scenario {
                jobs: scenario
                    .jobs
                    .iter()
                    .map(|job| Job {
                        partition: None,
                        ..job.clone()
                    })
                    .collect(),
                checkpoint_every: None,
            }),
            Self::RegionalRapidCkpt => Some(Scenario {
                jobs: scenario.jobs.clone(),
                checkpoint_every: None,
            }),
            Self::TraceHighload | Self::ScaleRandom => None,
        }
    }
}

/// A regional-fleet scenario: the compiled periodic plan (one route per
/// ~200 windows, fixed by [`DATASET_SEED`]) and the region-local packet
/// stream drawn from `seed`.
fn regional_scenario(
    rf: RegionalFleet,
    packets: u64,
    proto: Proto,
    shards: usize,
    seed: u64,
) -> Scenario {
    let routes = (rf.fleet.contacts / 200).max(1) as usize;
    let plan = Arc::new(rf.periodic_plan(routes, DATASET_SEED, 0));
    let config = SimConfig {
        nodes: rf.fleet.nodes,
        buffer_capacity: 16 * 1024,
        deadline: Some(TimeDelta::from_secs(600)),
        ttl: Some(TimeDelta::from_secs(900)),
        horizon: rf.fleet.horizon,
        allow_global_knowledge: false,
        seed,
        measure_from: Time::ZERO,
        intra_jobs: 1,
        lookahead: Lookahead::default(),
    };
    let job = Job {
        proto,
        deadline: TimeDelta::from_secs(600),
        measured: TimeDelta(rf.fleet.horizon.0),
        config,
        contacts: ContactsSpec::compiled(plan),
        packets: PacketsSpec::streaming(move || {
            Box::new(rf.packet_stream(packets, PACKET_BYTES, seed, 0))
        }),
        partition: (shards > 1).then(|| rf.partition(shards)),
    };
    Scenario {
        jobs: vec![job],
        checkpoint_every: None,
    }
}

/// One simulation of one protocol over one scenario.
#[derive(Clone)]
pub struct Job {
    pub proto: Proto,
    deadline: TimeDelta,
    measured: TimeDelta,
    pub config: SimConfig,
    pub contacts: ContactsSpec,
    pub packets: PacketsSpec,
    /// `None` runs the serial engine; `Some` the sharded runtime.
    pub partition: Option<Partition>,
}

impl Job {
    /// A job from a harness [`RunSpec`], with the executor pinned: serial
    /// engine, no intra-run workers, the default lookahead.
    fn from_spec(spec: &RunSpec, proto: Proto) -> Self {
        Self {
            proto,
            deadline: spec.deadline,
            measured: TimeDelta(spec.horizon.0.saturating_sub(spec.measure_from.0)),
            config: SimConfig {
                nodes: spec.nodes,
                buffer_capacity: spec.buffer,
                deadline: Some(spec.deadline),
                ttl: spec.ttl,
                horizon: spec.horizon,
                allow_global_knowledge: proto.needs_global(),
                seed: spec.seed,
                measure_from: spec.measure_from,
                intra_jobs: 1,
                lookahead: Lookahead::default(),
            },
            contacts: spec.contacts.clone(),
            packets: spec.packets.clone(),
            partition: None,
        }
    }

    /// The protocol's metric key.
    pub fn key(&self) -> &'static str {
        protocol_key(self.proto)
    }

    /// A fresh protocol instance.
    pub fn protocol(&self) -> Box<dyn Routing + Send> {
        self.proto.build(self.deadline, self.measured)
    }

    /// A fresh instance, wrapped in the timing layer when `times` is set.
    fn instance(&self, times: Option<&Arc<HookTimes>>) -> Box<dyn Routing + Send> {
        match times {
            Some(t) => Box::new(TimedRouting::new(self.protocol(), Arc::clone(t))),
            None => self.protocol(),
        }
    }

    /// Runs the job to completion. `checkpoints` writes snapshots through
    /// the given checkpointer; `times` wraps every protocol instance in
    /// the timing layer.
    pub fn run(
        &self,
        checkpoints: Option<&mut Checkpointer>,
        times: Option<&Arc<HookTimes>>,
    ) -> JobRun {
        let mut contacts = self.contacts.source();
        let mut packets = self.packets.source();
        let hooks = RunHooks {
            checkpoint: checkpoints,
            ..RunHooks::default()
        };
        match &self.partition {
            None => {
                let mut routing = self.instance(times);
                let report = run_streaming_hooked(
                    &self.config,
                    contacts.as_mut(),
                    packets.as_mut(),
                    &[],
                    None,
                    routing.as_mut(),
                    hooks,
                );
                JobRun {
                    report,
                    shards: Vec::new(),
                }
            }
            Some(partition) => {
                let (report, shards) = run_sharded_hooked(
                    &self.config,
                    partition,
                    contacts.as_mut(),
                    packets.as_mut(),
                    &[],
                    None,
                    &mut || self.instance(times),
                    hooks,
                );
                JobRun { report, shards }
            }
        }
    }

    /// Drains fresh copies of the job's sources without simulating:
    /// `(windows, packets)`.
    pub fn drain_sources(&self) -> (u64, u64) {
        let mut contacts = self.contacts.source();
        let mut packets = self.packets.source();
        let mut windows = 0;
        while contacts.next_window().is_some() {
            windows += 1;
        }
        let mut created = 0;
        while packets.next_packet().is_some() {
            created += 1;
        }
        (windows, created)
    }
}

/// A job's output: the report and, on the sharded runtime, per-shard
/// telemetry.
pub struct JobRun {
    pub report: SimReport,
    pub shards: Vec<ShardStats>,
}

/// Everything a workload runs, built once per set-up.
pub struct Scenario {
    pub jobs: Vec<Job>,
    /// Snapshot cadence, when the workload checkpoints.
    pub checkpoint_every: Option<TimeDelta>,
}

impl Scenario {
    /// Runs every job in order. With checkpointing, job `i` writes into
    /// `ckpt_root/job-i` (emptied first). `times` maps protocol keys to
    /// the shared hook counters of a traced run.
    pub fn run(
        &self,
        ckpt_root: &Path,
        times: Option<&BTreeMap<&'static str, Arc<HookTimes>>>,
    ) -> Vec<JobRun> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let times = times.map(|t| &t[job.key()]);
                match self.checkpoint_every {
                    None => job.run(None, times),
                    Some(every) => {
                        let dir = ckpt_root.join(format!("job-{i}"));
                        let _ = std::fs::remove_dir_all(&dir);
                        let mut ckpt = Checkpointer::new(&dir, every, CKPT_KEEP)
                            .unwrap_or_else(|e| panic!("checkpoint dir {}: {e}", dir.display()));
                        job.run(Some(&mut ckpt), times)
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small regional shape: 200 nodes, 20k windows, 200 packets.
    fn small(proto: Proto, shards: usize, ckpt: bool) -> Scenario {
        let rf = RegionalFleet {
            fleet: ScaleFleet {
                nodes: 200,
                contacts: 20_000,
                opportunity_bytes: 2 * 1024,
                contact_duration: TimeDelta::ZERO,
                horizon: Time::from_secs(1800),
                hubs: 16,
                hub_bias: 0.3,
            },
            regions: 8,
            locality: 0.95,
        };
        Scenario {
            checkpoint_every: ckpt.then(|| TimeDelta::from_secs(300)),
            ..regional_scenario(rf, 200, proto, shards, 5)
        }
    }

    fn timers() -> BTreeMap<&'static str, Arc<HookTimes>> {
        PROTOCOL_KEYS
            .iter()
            .map(|&k| (k, Arc::new(HookTimes::default())))
            .collect()
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rapid-benchmark-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wrapped_runs_equal_unwrapped_runs() {
        for (proto, shards, ckpt) in [
            (Proto::Random, 1, false),
            (Proto::Random, 2, false),
            (Proto::RapidAvg, 1, false),
            (Proto::RapidAvg, 2, false),
            (Proto::RapidAvg, 2, true),
            (Proto::Random, 2, true),
        ] {
            let scenario = small(proto, shards, ckpt);
            let dir = scratch_dir(&format!("{}-{shards}-{ckpt}", protocol_key(proto)));
            let plain = scenario.run(&dir, None);
            let times = timers();
            let traced = scenario.run(&dir, Some(&times));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                plain[0].report, traced[0].report,
                "{proto:?} shards={shards} ckpt={ckpt}"
            );
            let t = &times[protocol_key(proto)];
            let contacts = traced[0].report.contacts;
            assert!(contacts > 10_000, "shape drives its plan: {contacts}");
            if proto == Proto::Random {
                // Every driven contact reaches a protocol instance once,
                // whichever per-shard instance it lands on.
                assert_eq!(t.on_contact.calls(), contacts);
                assert_eq!(t.on_contact_latency.count(), contacts);
            } else if shards > 1 {
                // Shard-local contacts arrive through timed shard views.
                assert!(t.on_shard_epoch.calls() > 0);
                assert!(t.nested.calls() > 0);
                assert_eq!(t.on_contact.calls(), contacts);
            }
            if ckpt {
                // One capture per snapshot plus the runtime's up-front
                // checkpointability probe.
                assert!(
                    t.save_state.calls() >= 6,
                    "save_state calls {}",
                    t.save_state.calls()
                );
            }
        }
    }

    #[test]
    fn sharded_and_checkpointed_variants_match_their_references() {
        let sharded = small(Proto::Random, 2, false);
        let dir = scratch_dir("reference");
        let serial = Scenario {
            jobs: sharded
                .jobs
                .iter()
                .map(|j| Job {
                    partition: None,
                    ..j.clone()
                })
                .collect(),
            checkpoint_every: None,
        };
        assert_eq!(
            sharded.run(&dir, None)[0].report,
            serial.run(&dir, None)[0].report
        );
        let ckpt = small(Proto::RapidAvg, 2, true);
        let plain = small(Proto::RapidAvg, 2, false);
        let with = ckpt.run(&dir, None);
        let snapshots = std::fs::read_dir(dir.join("job-0")).unwrap().count();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(with[0].report, plain.run(&dir, None)[0].report);
        assert_eq!(snapshots, CKPT_KEEP);
    }

    #[test]
    fn names_round_trip() {
        for name in NAMES {
            assert_eq!(Workload::parse(name).unwrap().name(), name);
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
