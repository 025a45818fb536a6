//! The metric registry: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! holds the two together.

/// One metric's static description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true }
}

/// What a user of the system sees; every workload reports all of them,
/// always from the untraced pass. (`fail_share` is the result line's
/// `failed` ÷ `attempted`: it is 0 on every workload by design, and the
/// benchmark contract keeps always-zero values out of this list.)
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "op/s"),
    lower("op_p50_us", "us"),
    lower("peak_rss_mib", "MiB"),
    lower("msgs_per_op", "count"),
    lower("path_cost_per_op", "count"),
];

/// Single-layer metrics (layer = crate = the name's prefix), from the
/// traced pass. A workload sets only the metrics of layers it executes;
/// the rest are absent from its printed values and its result file, and
/// 0 on the driver's result line, which must carry every name.
pub const PER_LAYER: &[MetricDef] = &[
    // netsim
    lower("netsim.topology_build_s", "s"),
    lower("netsim.distance_ns", "ns"),
    lower("netsim.distance_calls_per_op", "count"),
    // overlay
    lower("overlay.next_hop_ns", "ns"),
    lower("overlay.hops_per_op", "count"),
    lower("overlay.table_build_s", "s"),
    lower("overlay.table_build_1w_s", "s"),
    lower("overlay.rows_per_node", "count"),
    // core
    lower("core.system_build_s", "s"),
    lower("core.discover_ns", "ns"),
    lower("core.discoveries_per_op", "count"),
    lower("core.route_mobile_residual_ns", "ns"),
    lower("core.ldt_build_ns", "ns"),
    lower("core.ldt_size_mean", "count"),
    lower("core.move_span_us", "us"),
    // store
    lower("store.mem_apply_ns", "ns"),
    lower("store.wal_append_ns", "ns"),
    lower("store.wal_bytes_per_op", "B"),
    lower("store.wal_snapshot_ms", "ms"),
    higher("store.wal_replay_mib_s", "MiB/s"),
    // proto
    lower("proto.encode_ns", "ns"),
    lower("proto.decode_ns", "ns"),
    lower("proto.frame_bytes_mean", "B"),
    lower("proto.start_route_self_ns", "ns"),
    lower("proto.poll_deliver_self_ns", "ns"),
    lower("proto.poll_timer_self_ns", "ns"),
    lower("proto.polls_per_op", "count"),
    lower("proto.env_calls_per_poll", "count"),
    lower("proto.retransmits_per_op", "count"),
    lower("proto.transport_send_ns", "ns"),
    // sim
    lower("sim.route_span_us", "us"),
    lower("sim.settle_span_us", "us"),
    lower("sim.disseminate_span_us", "us"),
    lower("sim.heartbeat_round_span_ms", "ms"),
    lower("sim.events_per_op", "count"),
    lower("sim.sends_per_op", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.queue_hold_ns", "ns"),
    lower("sim.heap_hold_ns", "ns"),
    lower("sim.driver_residual_ns_per_event", "ns"),
    higher("sim.ops_per_s_decay", "ratio"),
    lower("sim.rss_bytes_per_send", "B"),
    // net
    lower("net.bind_s", "s"),
    lower("net.idle_pump_ns", "ns"),
    lower("net.pumps_per_op", "calls"),
    lower("net.pump_self_us_per_op", "us"),
    lower("net.dispatch_ns", "ns"),
    lower("net.datagrams_per_op", "count"),
    higher("net.datagrams_per_s", "1/s"),
    lower("net.drops", "count"),
    lower("net.fast_forwards", "count"),
    // bench
    higher("bench.ops_per_s_median_rep", "op/s"),
    lower("bench.op_p99_us", "us"),
    lower("bench.timer_ns", "ns"),
    lower("bench.trace_overhead_share", "ratio"),
    higher("bench.trace_coverage_share", "ratio"),
];

/// Named values, in the order they were set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values that were set, in `defs` order.
    ///
    /// # Panics
    /// Panics if a value was set under a name `defs` does not list — a
    /// typo would otherwise silently drop a metric.
    pub fn ordered(&self, defs: &[MetricDef]) -> Values {
        for (n, _) in &self.0 {
            assert!(defs.iter().any(|d| d.name == *n), "metric {n} is not in the registry");
        }
        Values(defs.iter().filter_map(|d| Some((d.name, self.get(d.name)?))).collect())
    }

    /// Every name in `defs`, in that order, with 0 for names never set
    /// ("layer not executed"): the shape of the driver's result line,
    /// which must carry every metric.
    pub fn complete(&self, defs: &[MetricDef]) -> Values {
        let set = self.ordered(defs);
        Values(defs.iter().map(|d| (d.name, set.get(d.name).unwrap_or(0.0))).collect())
    }
}

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
