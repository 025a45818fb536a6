//! Full dynamic scenarios: movement + churn + lookups + periodic upkeep
//! on one virtual timeline.
//!
//! This is the harness behind the `dynamics` sweep: it drives a
//! [`BristleSystem`] through the discrete-event engine for a given
//! horizon, with Poisson movement per mobile node, Poisson churn over
//! the population, a steady lookup workload, and upkeep rounds on a
//! fixed period — then reports per-interval health (delivery rate,
//! discovery rate, traffic) so degradation or recovery over time is
//! visible. Every rate derives from the horizon; the rest is fixed.

use bristle_core::naming::Mobility;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_core::time::SimTime;
use bristle_netsim::transit_stub::TransitStubConfig;

use crate::churn::{ChurnAction, ChurnModel};
use crate::cli::SweepArgs;
use crate::engine::{run as run_events, EventQueue};
use crate::mobility::MobilityModel;
use crate::report::{f2, pct, Table};
use crate::sweeps::SweepRun;
use crate::workload::rate;

/// Ticks between upkeep rounds: half the recommended lease TTL.
pub const UPKEEP_PERIOD: u64 = 150;
/// Reporting intervals the horizon is cut into.
pub const INTERVALS: usize = 10;

/// Metrics for one reporting interval.
#[derive(Debug, Clone, Default)]
pub struct IntervalStats {
    /// Interval end time.
    pub until: SimTime,
    /// Lookups attempted.
    pub lookups: usize,
    /// Lookups that found their record.
    pub delivered: usize,
    /// `_discovery` operations across the interval's lookups.
    pub discoveries: usize,
    /// Moves executed.
    pub moves: usize,
    /// Churn events executed.
    pub churn_events: usize,
    /// Protocol messages sent during the interval.
    pub messages: u64,
}

impl IntervalStats {
    /// Delivery rate within the interval (1.0 when no lookups ran).
    pub fn delivery_rate(&self) -> f64 {
        rate(self.delivered as u64, self.lookups as u64, 1.0)
    }
}

/// The completed scenario timeline.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-interval health metrics.
    pub intervals: Vec<IntervalStats>,
    /// Final population (stationary, mobile).
    pub final_population: (usize, usize),
    /// Total events processed.
    pub events: u64,
}

impl ScenarioOutcome {
    /// Overall delivery rate across the whole run.
    pub fn overall_delivery(&self) -> f64 {
        let (ok, total) = self
            .intervals
            .iter()
            .fold((0usize, 0usize), |(ok, t), iv| (ok + iv.delivered, t + iv.lookups));
        rate(ok as u64, total as u64, 1.0)
    }
}

enum Ev {
    Move(u64),
    Churn,
    Lookup(u64),
    Upkeep,
}

/// Runs the scenario against an already-built system for `horizon`
/// ticks. A mobile node moves every `horizon / 10` ticks on average,
/// churn strikes every `horizon / 20` and a lookup runs every
/// `horizon / 200`; upkeep runs every [`UPKEEP_PERIOD`].
pub fn run(sys: &mut BristleSystem, horizon: u64) -> ScenarioOutcome {
    assert!(horizon >= INTERVALS as u64);
    let mobility = MobilityModel::new(horizon / 10);
    let churn = ChurnModel::balanced(horizon / 20);
    let lookup_interval = (horizon / 200).max(1);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    {
        let initial_mobile = sys.mobile_keys().len();
        let rng = sys.rng();
        // One movement process per initially-mobile node, each starting
        // at its own phase; each event re-schedules itself, so the
        // process outlives churn of specific nodes (the slot picks a live
        // mobile node at fire time).
        for (slot, phase) in mobility.initial_phases(initial_mobile, rng).into_iter().enumerate() {
            queue.schedule_at(SimTime(phase), Ev::Move(slot as u64));
        }
        queue.schedule_at(SimTime(churn.next_delay(rng)), Ev::Churn);
        queue.schedule_at(SimTime(1), Ev::Lookup(0));
        queue.schedule_at(SimTime(UPKEEP_PERIOD), Ev::Upkeep);
    }

    let interval_len = horizon / INTERVALS as u64;
    let mut intervals: Vec<IntervalStats> = (1..=INTERVALS)
        .map(|i| IntervalStats { until: SimTime(interval_len * i as u64), ..Default::default() })
        .collect();
    let mut msgs_at_interval_start = sys.meter.total_messages();
    let mut current_interval = 0usize;

    let events = run_events(&mut queue, SimTime(horizon), 2_000_000, |q, t, ev| {
        // Advance system time and interval bookkeeping.
        if sys.clock.now() < t {
            let dt = t.since(sys.clock.now());
            sys.tick(dt);
        }
        while current_interval + 1 < intervals.len() && t > intervals[current_interval].until {
            intervals[current_interval].messages =
                sys.meter.total_messages() - msgs_at_interval_start;
            msgs_at_interval_start = sys.meter.total_messages();
            current_interval += 1;
        }
        let iv = &mut intervals[current_interval];
        match ev {
            Ev::Move(slot) => {
                let mobiles = sys.mobile_keys();
                if !mobiles.is_empty() {
                    let m = mobiles[slot as usize % mobiles.len()];
                    sys.move_node(m, None).expect("move");
                    iv.moves += 1;
                }
                let delay = mobility.next_delay(sys.rng());
                q.schedule_in(delay, Ev::Move(slot));
            }
            Ev::Churn => {
                let action = churn.next_action(sys.rng());
                match action {
                    ChurnAction::Join => {
                        let mobility_class = if sys.rng().chance(0.5) {
                            Mobility::Mobile
                        } else {
                            Mobility::Stationary
                        };
                        sys.join_node(mobility_class).expect("join");
                    }
                    ChurnAction::Leave => {
                        let mobiles = sys.mobile_keys().to_vec();
                        if mobiles.len() > 2 {
                            let idx = sys.rng().index(mobiles.len());
                            sys.leave_node(mobiles[idx]).expect("leave");
                        }
                    }
                    ChurnAction::Fail => {
                        // Fail a stationary node (the harsher case: it may
                        // hold location records).
                        let stationaries = sys.stationary_keys().to_vec();
                        if stationaries.len() > 4 {
                            let idx = sys.rng().index(stationaries.len());
                            sys.fail_node(stationaries[idx]).expect("fail");
                        }
                    }
                }
                iv.churn_events += 1;
                let delay = churn.next_delay(sys.rng());
                q.schedule_in(delay, Ev::Churn);
            }
            Ev::Lookup(n) => {
                let stationaries = sys.stationary_keys().to_vec();
                let mobiles = sys.mobile_keys().to_vec();
                if !stationaries.is_empty() && !mobiles.is_empty() {
                    let src = stationaries[n as usize % stationaries.len()];
                    let dst = mobiles[(n as usize * 3) % mobiles.len()];
                    let rep = sys.route_mobile(src, dst).expect("route");
                    iv.lookups += 1;
                    iv.discoveries += rep.discoveries;
                    if rep.terminus == dst {
                        iv.delivered += 1;
                    }
                }
                q.schedule_in(lookup_interval, Ev::Lookup(n + 1));
            }
            Ev::Upkeep => {
                sys.run_upkeep().expect("upkeep");
                q.schedule_in(UPKEEP_PERIOD, Ev::Upkeep);
            }
        }
    });
    intervals[current_interval].messages += sys.meter.total_messages() - msgs_at_interval_start;

    ScenarioOutcome {
        intervals,
        final_population: (sys.stationary_keys().len(), sys.mobile_keys().len()),
        events,
    }
}

/// Renders the timeline.
pub fn to_table(outcome: &ScenarioOutcome) -> Table {
    let mut t = Table::new(
        "Dynamic scenario timeline",
        &["until", "lookups", "delivery", "disc/lookup", "moves", "churn", "messages"],
    );
    for iv in &outcome.intervals {
        let disc = if iv.lookups == 0 { 0.0 } else { iv.discoveries as f64 / iv.lookups as f64 };
        t.row(vec![
            iv.until.to_string(),
            iv.lookups.to_string(),
            pct(iv.delivery_rate()),
            f2(disc),
            iv.moves.to_string(),
            iv.churn_events.to_string(),
            iv.messages.to_string(),
        ]);
    }
    t
}

/// The `dynamics` sweep: one full scenario (movement + churn + lookups +
/// upkeep on one virtual timeline), reported as the per-interval health
/// table.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let seed = args.seed_or(4242);
    let (n_stat, n_mob, horizon) = args.scale.pick((120, 60, 3_000), (700, 300, 12_000));
    let mut sys = BristleBuilder::new(seed)
        .stationary_nodes(n_stat)
        .mobile_nodes(n_mob)
        .topology(TransitStubConfig::small())
        .build()
        .expect("system builds");
    let outcome = run(&mut sys, horizon);
    let mut out = SweepRun::new("dynamics", seed);
    out.tables.push(to_table(&outcome));
    out.lines.push(format!(
        "overall delivery {:.1}%  final population {}+{}  events {}",
        outcome.overall_delivery() * 100.0,
        outcome.final_population.0,
        outcome.final_population.1,
        outcome.events
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_overlay::key::Key;

    fn system(seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(50)
            .mobile_nodes(20)
            .topology(TransitStubConfig::tiny())
            .build()
            .unwrap()
    }

    const HORIZON: u64 = 1_000;

    #[test]
    fn scenario_delivers_through_movement_and_churn() {
        let mut sys = system(1);
        let outcome = run(&mut sys, HORIZON);
        assert!(outcome.events > 50, "scenario must actually run ({} events)", outcome.events);
        assert!(outcome.overall_delivery() > 0.95, "delivery {}", outcome.overall_delivery());
        let total_moves: usize = outcome.intervals.iter().map(|i| i.moves).sum();
        assert!(total_moves > 0);
        let total_churn: usize = outcome.intervals.iter().map(|i| i.churn_events).sum();
        assert!(total_churn > 0);
    }

    /// A movement process per initially-mobile node: over ten mean
    /// move intervals nearly every one of them moves, not a fixed few.
    #[test]
    fn most_mobile_nodes_move() {
        let mut sys = BristleBuilder::new(6)
            .stationary_nodes(30)
            .mobile_nodes(40)
            .topology(TransitStubConfig::tiny())
            .build()
            .unwrap();
        let epoch = |sys: &BristleSystem, k: Key| {
            sys.node_info(k).ok().map(|n| sys.attachments.current(n.host).epoch)
        };
        let before: Vec<(Key, u32)> =
            sys.mobile_keys().iter().map(|&k| (k, epoch(&sys, k).expect("live"))).collect();
        run(&mut sys, HORIZON);
        let moved =
            before.iter().filter(|&&(k, was)| epoch(&sys, k).is_some_and(|now| now != was)).count();
        assert!(2 * moved >= before.len(), "{moved} of {} mobile nodes moved", before.len());
    }

    #[test]
    fn timeline_has_requested_intervals_and_table_renders() {
        let mut sys = system(3);
        let outcome = run(&mut sys, HORIZON);
        assert_eq!(outcome.intervals.len(), INTERVALS);
        assert_eq!(to_table(&outcome).len(), INTERVALS);
    }

    #[test]
    fn population_changes_under_churn() {
        let mut sys = system(4);
        let before = (sys.stationary_keys().len(), sys.mobile_keys().len());
        let outcome = run(&mut sys, HORIZON);
        assert_ne!(outcome.final_population, before, "churn must change the population");
    }

    #[test]
    fn deterministic_outcome() {
        let run_once = || {
            let mut sys = system(5);
            let o = run(&mut sys, HORIZON);
            (o.events, o.overall_delivery().to_bits(), o.final_population)
        };
        assert_eq!(run_once(), run_once());
    }
}
