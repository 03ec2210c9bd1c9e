//! The timing `Routing` wrapper behind the traced run.
//!
//! [`Timed`] delegates every [`Routing`] method to the protocol it wraps
//! and times the hooks into a [`HookTimes`] shared through an `Arc`, so
//! the per-shard instances of a `Stateless` protocol and the shard views
//! of a single `NodeDisjoint` instance all add into one set of counters.
//! The wrapper changes no decision: a wrapped run's report is identical
//! to the unwrapped run's (tested below and checked on every traced run).

use crate::stats::{thread_slot, LatencyHistogram, SLOTS};
use dtn_sim::{
    ContactConcurrency, ContactDriver, ContactPool, NodeBuffer, NodeId, Packet, PacketId,
    PacketStore, Partition, Routing, SimConfig, Time,
};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One thread's call count and nanoseconds, on its own cache line.
#[derive(Default)]
#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Call count and total nanoseconds of one hook, per thread slot.
#[derive(Default)]
pub struct HookTime {
    slots: [Slot; SLOTS],
}

impl HookTime {
    fn add(&self, ns: u64) {
        let slot = &self.slots[thread_slot()];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.calls.load(Ordering::Relaxed))
            .sum()
    }

    /// Total time in seconds.
    pub fn secs(&self) -> f64 {
        let ns: u64 = self
            .slots
            .iter()
            .map(|s| s.ns.load(Ordering::Relaxed))
            .sum();
        ns as f64 * 1e-9
    }
}

/// Hook timings of one protocol, aggregated over every instance and
/// thread that shares them.
#[derive(Default)]
pub struct HookTimes {
    pub on_contact: HookTime,
    /// Per-call `on_contact` latency (ns).
    pub on_contact_latency: LatencyHistogram,
    pub on_contact_batch: HookTime,
    pub on_contact_end: HookTime,
    pub on_packet_created: HookTime,
    pub on_creation_dropped: HookTime,
    pub make_room: HookTime,
    pub on_packet_expired: HookTime,
    pub on_shard_epoch: HookTime,
    pub on_node_up: HookTime,
    pub on_node_down: HookTime,
    pub on_init: HookTime,
    pub save_state: HookTime,
    pub load_state: HookTime,
    /// Time spent in hooks called through a shard view, i.e. nested
    /// inside an `on_shard_epoch` call that is itself timed.
    pub nested: HookTime,
}

impl HookTimes {
    /// Total time in hooks called by the runtime directly (nested
    /// shard-view calls are already inside `on_shard_epoch`).
    pub fn top_level_secs(&self) -> f64 {
        let all = [
            &self.on_contact,
            &self.on_contact_batch,
            &self.on_contact_end,
            &self.on_packet_created,
            &self.on_creation_dropped,
            &self.make_room,
            &self.on_packet_expired,
            &self.on_shard_epoch,
            &self.on_node_up,
            &self.on_node_down,
            &self.on_init,
            &self.save_state,
            &self.load_state,
        ];
        all.iter().map(|h| h.secs()).sum::<f64>() - self.nested.secs()
    }
}

/// Access to the wrapped protocol, whether owned (a runtime instance) or
/// borrowed (a shard view lent to `on_shard_epoch`'s drain).
pub trait Inner {
    fn get(&self) -> &dyn Routing;
    fn get_mut(&mut self) -> &mut dyn Routing;
}

impl Inner for Box<dyn Routing + Send> {
    fn get(&self) -> &dyn Routing {
        self.as_ref()
    }
    fn get_mut(&mut self) -> &mut dyn Routing {
        self.as_mut()
    }
}

impl Inner for &mut dyn Routing {
    fn get(&self) -> &dyn Routing {
        &**self
    }
    fn get_mut(&mut self) -> &mut dyn Routing {
        &mut **self
    }
}

/// A protocol wrapped so that every hook is delegated and timed.
pub struct Timed<R, T> {
    inner: R,
    times: T,
    /// Whether this wraps a shard view (its hook time is nested inside
    /// the owner's `on_shard_epoch`).
    nested: bool,
}

/// The wrapper the runtimes own: a boxed protocol plus shared counters.
pub type TimedRouting = Timed<Box<dyn Routing + Send>, Arc<HookTimes>>;

impl TimedRouting {
    /// Wraps `inner`, recording into `times`.
    pub fn new(inner: Box<dyn Routing + Send>, times: Arc<HookTimes>) -> Self {
        Self {
            inner,
            times,
            nested: false,
        }
    }
}

impl<R: Inner, T: Deref<Target = HookTimes>> Timed<R, T> {
    /// Runs `f` against the inner protocol, charging its time to `hook`.
    fn time<O>(
        &mut self,
        hook: fn(&HookTimes) -> &HookTime,
        f: impl FnOnce(&mut dyn Routing) -> O,
    ) -> O {
        let start = Instant::now();
        let out = f(self.inner.get_mut());
        self.charge(hook, start);
        out
    }

    fn charge(&self, hook: fn(&HookTimes) -> &HookTime, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        hook(&self.times).add(ns);
        if self.nested {
            self.times.nested.add(ns);
        }
        ns
    }
}

impl<R: Inner, T: Deref<Target = HookTimes>> Routing for Timed<R, T> {
    fn name(&self) -> String {
        self.inner.get().name()
    }

    fn on_init(&mut self, config: &SimConfig) {
        self.time(|t| &t.on_init, |r| r.on_init(config))
    }

    fn on_packet_created(&mut self, packet: &Packet) {
        self.time(|t| &t.on_packet_created, |r| r.on_packet_created(packet))
    }

    fn on_creation_dropped(&mut self, packet: &Packet) {
        self.time(
            |t| &t.on_creation_dropped,
            |r| r.on_creation_dropped(packet),
        )
    }

    fn make_room(
        &mut self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        self.time(
            |t| &t.make_room,
            |r| r.make_room(node, incoming, needed, buffer, packets, now),
        )
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let start = Instant::now();
        self.inner.get_mut().on_contact(driver);
        let ns = self.charge(|t| &t.on_contact, start);
        self.times.on_contact_latency.record(ns);
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        self.inner.get().contact_concurrency()
    }

    fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], pool: &ContactPool) {
        self.time(|t| &t.on_contact_batch, |r| r.on_contact_batch(batch, pool))
    }

    fn on_contact_end(&mut self, a: NodeId, b: NodeId, now: Time, interrupted: bool) {
        self.time(
            |t| &t.on_contact_end,
            |r| r.on_contact_end(a, b, now, interrupted),
        )
    }

    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        let times: &HookTimes = &self.times;
        // Time the hooks of each shard view, too: the drain hands the
        // view to the runtime, which drives the shard's queued actions
        // through it.
        let timed_drain = |shard: usize, view: &mut dyn Routing| {
            let mut view = Timed {
                inner: view,
                times,
                nested: true,
            };
            drain(shard, &mut view);
        };
        let start = Instant::now();
        let drained = self
            .inner
            .get_mut()
            .on_shard_epoch(partition, pool, &timed_drain);
        self.charge(|t| &t.on_shard_epoch, start);
        drained
    }

    fn on_packet_expired(&mut self, packet: &Packet) {
        self.time(|t| &t.on_packet_expired, |r| r.on_packet_expired(packet))
    }

    fn on_node_up(&mut self, node: NodeId, now: Time) {
        self.time(|t| &t.on_node_up, |r| r.on_node_up(node, now))
    }

    fn on_node_down(&mut self, node: NodeId, now: Time) {
        self.time(|t| &t.on_node_down, |r| r.on_node_down(node, now))
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let start = Instant::now();
        let state = self.inner.get().save_state();
        self.charge(|t| &t.save_state, start);
        state
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.time(|t| &t.load_state, |r| r.load_state(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Records which methods reached it and returns recognizable values.
    struct Recorder {
        calls: Arc<Mutex<BTreeMap<&'static str, u64>>>,
    }

    impl Recorder {
        fn hit(&self, method: &'static str) {
            *self.calls.lock().unwrap().entry(method).or_default() += 1;
        }
    }

    impl Routing for Recorder {
        fn name(&self) -> String {
            self.hit("name");
            "recorder".into()
        }
        fn on_init(&mut self, _: &SimConfig) {
            self.hit("on_init");
        }
        fn on_packet_created(&mut self, _: &Packet) {
            self.hit("on_packet_created");
        }
        fn on_creation_dropped(&mut self, _: &Packet) {
            self.hit("on_creation_dropped");
        }
        fn make_room(
            &mut self,
            _: NodeId,
            incoming: &Packet,
            _: u64,
            _: &NodeBuffer,
            _: &PacketStore,
            _: Time,
        ) -> Vec<PacketId> {
            self.hit("make_room");
            vec![incoming.id]
        }
        fn on_contact(&mut self, _: &mut ContactDriver<'_>) {
            self.hit("on_contact");
        }
        fn contact_concurrency(&self) -> ContactConcurrency {
            self.hit("contact_concurrency");
            ContactConcurrency::NodeDisjoint
        }
        fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], _: &ContactPool) {
            self.hit("on_contact_batch");
            for driver in batch {
                self.on_contact(driver);
            }
        }
        fn on_contact_end(&mut self, _: NodeId, _: NodeId, _: Time, _: bool) {
            self.hit("on_contact_end");
        }
        fn on_shard_epoch(
            &mut self,
            partition: &Partition,
            _: &ContactPool,
            drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
        ) -> bool {
            self.hit("on_shard_epoch");
            let mut view = Recorder {
                calls: Arc::clone(&self.calls),
            };
            for s in 0..partition.shards() {
                drain(s, &mut view);
            }
            true
        }
        fn on_packet_expired(&mut self, _: &Packet) {
            self.hit("on_packet_expired");
        }
        fn on_node_up(&mut self, _: NodeId, _: Time) {
            self.hit("on_node_up");
        }
        fn on_node_down(&mut self, _: NodeId, _: Time) {
            self.hit("on_node_down");
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            self.hit("save_state");
            Some(vec![7, 7])
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            self.hit("load_state");
            if bytes == [7, 7] {
                Ok(())
            } else {
                Err("bad state".into())
            }
        }
    }

    fn packet() -> Packet {
        Packet {
            id: PacketId(3),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 10,
            created_at: Time::ZERO,
        }
    }

    #[test]
    fn every_method_is_delegated_and_timed() {
        let calls = Arc::new(Mutex::new(BTreeMap::new()));
        let times = Arc::new(HookTimes::default());
        let mut timed = TimedRouting::new(
            Box::new(Recorder {
                calls: Arc::clone(&calls),
            }),
            Arc::clone(&times),
        );
        let p = packet();
        assert_eq!(timed.name(), "recorder");
        timed.on_init(&SimConfig::default());
        timed.on_packet_created(&p);
        timed.on_creation_dropped(&p);
        let victims = timed.make_room(
            NodeId(0),
            &p,
            5,
            &NodeBuffer::new(100),
            &PacketStore::default(),
            Time::ZERO,
        );
        assert_eq!(victims, vec![PacketId(3)]);
        assert_eq!(
            timed.contact_concurrency(),
            ContactConcurrency::NodeDisjoint
        );
        timed.on_contact_end(NodeId(0), NodeId(1), Time::ZERO, false);
        timed.on_packet_expired(&p);
        timed.on_node_up(NodeId(0), Time::ZERO);
        timed.on_node_down(NodeId(0), Time::ZERO);
        assert_eq!(timed.save_state(), Some(vec![7, 7]));
        assert_eq!(timed.load_state(&[7, 7]), Ok(()));
        assert!(timed.load_state(&[1]).is_err());

        // on_shard_epoch: the inner protocol's return value comes back,
        // and every shard view the drain receives is itself wrapped (its
        // hooks land in the same counters, marked nested).
        let partition = Partition::even(4, 2);
        let drained = std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 1);
            timed.on_shard_epoch(&partition, &pool, &|_, view: &mut dyn Routing| {
                view.on_node_up(NodeId(0), Time::ZERO);
            })
        });
        assert!(drained);
        assert_eq!(times.on_shard_epoch.calls(), 1);
        assert_eq!(times.on_node_up.calls(), 3);
        assert_eq!(times.nested.calls(), 2);

        // on_contact and on_contact_batch need live drivers: run a tiny
        // simulation serially, then with intra-run batching.
        let schedule = dtn_sim::Schedule::new(vec![
            dtn_sim::Contact::new(Time::from_secs(1), NodeId(0), NodeId(1), 100),
            dtn_sim::Contact::new(Time::from_secs(1), NodeId(2), NodeId(3), 100),
        ]);
        let workload = dtn_sim::workload::Workload::new(Vec::new());
        for intra_jobs in [1, 2] {
            let config = SimConfig {
                nodes: 4,
                intra_jobs,
                ..SimConfig::default()
            };
            dtn_sim::Simulation::new(config, schedule.clone(), workload.clone()).run(&mut timed);
        }
        assert!(times.on_contact.calls() >= 2);
        assert_eq!(times.on_contact_latency.count(), times.on_contact.calls());
        assert_eq!(times.on_contact_batch.calls(), 1);

        let calls = calls.lock().unwrap();
        for method in [
            "name",
            "on_init",
            "on_packet_created",
            "on_creation_dropped",
            "make_room",
            "on_contact",
            "contact_concurrency",
            "on_contact_batch",
            "on_contact_end",
            "on_shard_epoch",
            "on_packet_expired",
            "on_node_up",
            "on_node_down",
            "save_state",
            "load_state",
        ] {
            assert!(
                calls.get(method).copied().unwrap_or(0) > 0,
                "{method} not delegated"
            );
        }
        for (hook, t) in [
            ("on_init", &times.on_init),
            ("on_packet_created", &times.on_packet_created),
            ("on_creation_dropped", &times.on_creation_dropped),
            ("make_room", &times.make_room),
            ("on_contact_end", &times.on_contact_end),
            ("on_packet_expired", &times.on_packet_expired),
            ("on_node_down", &times.on_node_down),
            ("save_state", &times.save_state),
            ("load_state", &times.load_state),
        ] {
            assert!(t.calls() >= 1, "{hook} not timed");
        }
        assert!(times.top_level_secs() >= 0.0);
    }
}
