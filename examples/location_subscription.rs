//! Proactive location subscription through LDTs — a buddy tracker.
//!
//! Peers `register` interest in a mobile friend (paper §2.3.1). Whenever
//! the friend moves, its new address is pushed to every subscriber
//! through its capacity-aware location dissemination tree, in
//! O(log log N) hops, with the heavy lifting done by the most capable
//! subscribers. Subscribers then hold fresh leases and can contact the
//! friend directly — no reactive discovery needed.
//!
//! ```text
//! cargo run --release --example location_subscription
//! ```

use bristle::core::registry::Registrant;
use bristle::prelude::*;

fn main() -> Result<()> {
    let mut sys = BristleBuilder::new(99).stationary_nodes(70).mobile_nodes(30).build()?;
    let friend = sys.mobile_keys()[0];

    // Ten peers subscribe to the friend's movements (on top of whatever
    // routing-state registrations already exist).
    let subscribers: Vec<Key> = sys.stationary_keys().iter().copied().take(6).collect();
    for &s in &subscribers {
        sys.register_interest(s, friend)?;
    }
    println!("{} peers subscribed to {friend}", subscribers.len());

    // Inspect the friend's LDT before any movement.
    // R(friend) hands its registrants out by value, each with the
    // capacity C_X it reported; the most capable sit nearest the root.
    let tree = sys.build_ldt(friend)?;
    let registrants: Vec<Registrant> = sys.registry.registrants_of(friend).collect();
    let capacity: u32 = registrants.iter().map(|r| r.capacity).sum();
    println!(
        "LDT: {} members, depth {} (O(log log N) — {} registrants reporting capacity {capacity})",
        tree.len(),
        tree.depth(),
        registrants.len()
    );
    let hist = tree.level_histogram();
    for (level, count) in hist.iter().enumerate() {
        println!("  level {}: {} member(s)", level + 1, count);
    }

    // The friend roams three times; each move pushes updates down the tree.
    for hop in 1..=3 {
        let report = sys.move_node(friend, None)?;
        println!(
            "move {hop}: new router {}, {} update messages, total physical cost {}",
            report.new_router, report.updates_sent, report.update_cost
        );
        // Every subscriber now holds a fresh lease with the new address.
        let now = sys.clock.now();
        let fresh = subscribers.iter().filter(|&&s| sys.leases.is_fresh(s, friend, now)).count();
        println!("  {fresh}/{} subscribers hold fresh leases", subscribers.len());

        // Contacting the friend from a subscriber needs no discovery:
        let rep = sys.route_mobile(subscribers[0], friend)?;
        println!(
            "  subscriber -> friend: {} hops, {} discoveries (early binding at work)",
            rep.total_hops(),
            rep.discoveries
        );
    }

    // Let the leases expire and watch late binding take over.
    let ttl = sys.config().lease_ttl;
    sys.tick(ttl + 1);
    sys.move_node(friend, None)?;
    // Suppress what advertisement just refreshed: expire again.
    sys.tick(ttl + 1);
    let rep = sys.route_mobile(subscribers[0], friend)?;
    println!(
        "after lease expiry: {} hops including {} reactive discoveries (late binding)",
        rep.total_hops(),
        rep.discoveries
    );
    Ok(())
}
