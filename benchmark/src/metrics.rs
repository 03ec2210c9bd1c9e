//! The metric catalogue: every metric the benchmark prints, with its
//! unit. `BENCHMARK.json` declares the same lists, adding each metric's
//! direction and, end to end, its bound (a test keeps the two in step).

use crate::workload::PROTOCOL_KEYS;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
    EndToEnd {
        name: "delivery_rate",
        unit: "fraction",
    },
    EndToEnd {
        name: "avg_delay_s",
        unit: "s",
    },
    EndToEnd {
        name: "passed_frac",
        unit: "fraction",
    },
];

/// A per-layer metric, printed by every traced run.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
}

/// Per-protocol hook metrics (`routing.<key>.<suffix>`).
const PROTOCOL_METRICS: [(&str, &str); 11] = [
    ("on_contact_s", "s"),
    ("on_contact_calls", "count"),
    ("on_contact_p50_us", "us"),
    ("on_contact_p99_us", "us"),
    ("on_packet_created_s", "s"),
    ("make_room_s", "s"),
    ("make_room_calls", "count"),
    ("on_packet_expired_s", "s"),
    ("on_shard_epoch_s", "s"),
    ("save_state_s", "s"),
    ("save_state_calls", "count"),
];

/// Layer metrics that are not per protocol, grouped by layer.
const LAYER_METRICS: [(&str, &str); 23] = [
    // sources
    ("source.windows", "count"),
    ("source.packets", "count"),
    ("source.drain_s", "s"),
    // event merge + contact driver
    ("engine.self_s", "s"),
    ("engine.contacts", "count"),
    ("engine.contacts_failed", "count"),
    ("engine.contacts_suppressed", "count"),
    ("engine.expired", "count"),
    ("driver.replications", "count"),
    ("driver.data_bytes", "bytes"),
    ("driver.utilization", "fraction"),
    // director
    ("shard.busy_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.blocked_s", "s"),
    ("director.serial_s", "s"),
    // control channel
    ("control.metadata_bytes", "bytes"),
    ("control.metadata_frac", "fraction"),
    // checkpoint
    ("ckpt.snapshots", "count"),
    ("ckpt.bytes_per_snapshot", "bytes"),
    ("ckpt.overhead_s", "s"),
    ("ckpt.load_latest_s", "s"),
    // memory
    ("mem.setup_rss_mb", "MB"),
    ("mem.run_growth_mb", "MB"),
];

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Layer {
            name: name.to_string(),
            unit,
        })
        .collect();
    for key in PROTOCOL_KEYS {
        for (suffix, unit) in PROTOCOL_METRICS {
            out.push(Layer {
                name: format!("routing.{key}.{suffix}"),
                unit,
            });
        }
    }
    out.push(Layer {
        name: "trace.overhead_frac".to_string(),
        unit: "fraction",
    });
    out
}

/// Unit of an end-to-end metric.
pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::Better;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    /// `(name, unit)` of each metric in one list; every metric must
    /// declare a direction.
    fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
        spec.get(list)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                let better = m.get("better").and_then(Json::as_str).unwrap_or("");
                assert!(
                    Better::parse(better).is_some(),
                    "{name}: better = {better:?}"
                );
                (
                    name,
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared(&spec, "end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(declared(&spec, "per_layer"), layers);
        let workloads: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        // Every declared workload exists, in the order `NAMES` lists them.
        let mut known = crate::workload::NAMES.iter();
        for w in &workloads {
            assert!(
                known.any(|n| n == w),
                "{w} is not a workload (or out of order)"
            );
        }
        // setup_s carries the largest bound; every bound is within 0.25.
        let bounds: Vec<(String, f64)> = spec
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
            assert!(*bound <= setup, "{name} bound above setup_s's");
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let n = names.len();
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
    }
}
