//! Scale sweep: population growth vs route length, LDT depth, state
//! size, and engine-queue throughput.
//!
//! The paper's HS-P2P claims are asymptotic — `O(log N)` application
//! hops on the ring and `O(log log N)`-ish LDT depth (capacity-bounded
//! trees over `O(log N)` registrants). This module grows `N` over
//! decades, measures both quantities on live overlays, and fits each
//! against its claimed growth law so the committed report carries the
//! slope/R² evidence, not just point samples.
//!
//! Determinism contract: every number destined for the committed
//! `BENCH_scale.json` derives from integer sums under per-sample RNGs
//! (`Pcg64::new(seed ^ SALT, sample_index)`), so the report bytes are
//! identical at any `--workers` count — sharding the sample loop across
//! threads changes wall-clock only. No wall-clock number is printed or
//! reported here: build seconds and queue hold times are tracked by the
//! `wallbench` ledger (`overlay.table_build_s`, `sim.queue_hold_ns`,
//! `sim.heap_hold_ns`), which calls [`queue_bench`].

use std::time::Instant;

use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_core::time::SimTime;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::key::Key;
use bristle_overlay::ring::RingDht;

use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::engine::{BinaryHeapQueue, EventQueue};
use crate::report::{f2, f3, Table};
use crate::runreport::Json;
use crate::sweeps::SweepRun;
use crate::workload::Telemetry;

/// RNG stream salts (stable: committed report bytes depend on them).
const ROUTE_SALT: u64 = 0x0005_ca1e_0001;
const LDT_SALT: u64 = 0x0005_ca1e_0002;
const BENCH_SALT: u64 = 0x0005_ca1e_0003;

/// Mobile fraction of every population.
pub const MOBILE_FRACTION: f64 = 0.2;

/// Parameters of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Total populations (stationary + mobile) to measure, ascending.
    pub populations: Vec<usize>,
    /// Routed lookups sampled per cell.
    pub route_samples: usize,
    /// LDT roots sampled per cell (capped at the mobile count).
    pub ldt_samples: usize,
    /// RNG seed (cells derive per-sample streams from it).
    pub seed: u64,
    /// Worker threads for table wiring and route sampling. Never affects
    /// results — only wall-clock.
    pub workers: usize,
}

impl ScaleConfig {
    /// The committed-benchmark sweep: N ∈ {1e3, 1e4, 1e5} at seed 8.
    pub fn standard(seed: u64, workers: usize) -> Self {
        ScaleConfig {
            populations: vec![1_000, 10_000, 100_000],
            route_samples: 2_000,
            ldt_samples: 400,
            seed,
            workers,
        }
    }

    /// CI smoke: N = 1e3 only, fewer samples.
    pub fn smoke(seed: u64, workers: usize) -> Self {
        ScaleConfig {
            populations: vec![1_000],
            route_samples: 500,
            ldt_samples: 100,
            ..Self::standard(seed, workers)
        }
    }

    /// Adds the stretch point N = 1e6.
    pub fn with_stretch(mut self) -> Self {
        self.populations.push(1_000_000);
        self
    }
}

/// Deterministic measurements for one population cell (everything here
/// may enter the committed report).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCell {
    /// Total population N.
    pub n: usize,
    /// Stationary-node count.
    pub stationary: usize,
    /// Mobile-node count.
    pub mobile: usize,
    /// Routed lookups sampled.
    pub route_samples: usize,
    /// Sum of application hops over all samples.
    pub hops_sum: u64,
    /// Worst sampled route.
    pub hops_max: u32,
    /// LDT roots sampled.
    pub ldt_samples: usize,
    /// Sum of tree depths.
    pub depth_sum: u64,
    /// Sum of tree sizes (members incl. root).
    pub size_sum: u64,
    /// Total routing-state rows across the mobile ring.
    pub table_rows: u64,
}

impl ScaleCell {
    /// Mean application hops per routed lookup.
    pub fn hops_mean(&self) -> f64 {
        self.hops_sum as f64 / self.route_samples.max(1) as f64
    }

    /// Mean LDT depth.
    pub fn depth_mean(&self) -> f64 {
        self.depth_sum as f64 / self.ldt_samples.max(1) as f64
    }

    /// Mean LDT size.
    pub fn size_mean(&self) -> f64 {
        self.size_sum as f64 / self.ldt_samples.max(1) as f64
    }

    /// Mean routing-state rows per node.
    pub fn rows_per_node(&self) -> f64 {
        self.table_rows as f64 / self.n.max(1) as f64
    }
}

/// Builds the cell's system and measures it.
pub fn run_cell(cfg: &ScaleConfig, n: usize) -> ScaleCell {
    let mobile = ((n as f64) * MOBILE_FRACTION) as usize;
    let stationary = n - mobile;
    let sys = BristleBuilder::new(cfg.seed)
        .stationary_nodes(stationary)
        .mobile_nodes(mobile)
        .topology(TransitStubConfig::small())
        .build_workers(cfg.workers)
        .build()
        .expect("system builds");
    let hops = sample_routes(&sys.mobile, cfg.seed, cfg.route_samples, cfg.workers);
    let (depth_sum, size_sum, ldt_samples) = sample_ldts(&sys, cfg.seed, cfg.ldt_samples);

    ScaleCell {
        n,
        stationary,
        mobile,
        route_samples: hops.len(),
        hops_sum: hops.iter().map(|&h| h as u64).sum(),
        hops_max: hops.iter().copied().max().unwrap_or(0),
        ldt_samples,
        depth_sum,
        size_sum,
        table_rows: sys.mobile.total_state() as u64,
    }
}

/// Samples `samples` routed lookups on `ring`, sharded across `workers`
/// scoped threads. Per-sample RNG streams make the result independent of
/// the worker count.
pub fn sample_routes(
    ring: &RingDht<Vec<u8>>,
    seed: u64,
    samples: usize,
    workers: usize,
) -> Vec<u32> {
    let keys: Vec<Key> = ring.keys().collect();
    if keys.is_empty() || samples == 0 {
        return Vec::new();
    }
    let route_one = |i: usize| -> u32 {
        let mut rng = Pcg64::new(seed ^ ROUTE_SALT, i as u64);
        let src = ring.slot_of(*rng.choose(&keys)).expect("known node");
        ring.walk(src, Key::random(&mut rng)).count() as u32
    };
    let workers = workers.max(1).min(samples);
    if workers == 1 {
        return (0..samples).map(route_one).collect();
    }
    let chunk = samples.div_ceil(workers);
    let shards: Vec<Vec<usize>> =
        (0..samples).collect::<Vec<_>>().chunks(chunk).map(|c| c.to_vec()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| s.spawn(|| shard.iter().map(|&i| route_one(i)).collect::<Vec<u32>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("route worker")).collect()
    })
}

/// Samples LDT depth/size over up to `samples` mobile roots. Sequential:
/// the tree build borrows the whole system, and the sample counts are
/// small.
fn sample_ldts(sys: &BristleSystem, seed: u64, samples: usize) -> (u64, u64, usize) {
    let roots = sys.mobile_keys();
    if roots.is_empty() || samples == 0 {
        return (0, 0, 0);
    }
    let mut rng = Pcg64::new(seed ^ LDT_SALT, 0);
    let mut picked: Vec<Key> = roots.to_vec();
    rng.shuffle(&mut picked);
    picked.truncate(samples);
    let mut depth_sum = 0u64;
    let mut size_sum = 0u64;
    for &root in &picked {
        let tree = sys.build_ldt(root).expect("live mobile root");
        depth_sum += tree.depth() as u64;
        size_sum += tree.len() as u64;
    }
    (depth_sum, size_sum, picked.len())
}

/// A least-squares linear fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (1 = perfect fit).
    pub r2: f64,
}

/// Fits `ys` against `xs` by ordinary least squares.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Fit {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return Fit { slope: 0.0, intercept: ys.first().copied().unwrap_or(0.0), r2: 1.0 };
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Fit { slope, intercept, r2 }
}

/// Fits route hops against `log2 N` (the paper's `O(log N)` hop claim)
/// and LDT depth against `log2 log2 N` (the `O(log log N)` depth claim).
pub fn growth_fits(cells: &[ScaleCell]) -> (Fit, Fit) {
    let log_n: Vec<f64> = cells.iter().map(|c| (c.n as f64).log2()).collect();
    let loglog_n: Vec<f64> = log_n.iter().map(|&x| x.log2()).collect();
    let hops: Vec<f64> = cells.iter().map(|c| c.hops_mean()).collect();
    let depth: Vec<f64> = cells.iter().map(|c| c.depth_mean()).collect();
    (linear_fit(&log_n, &hops), linear_fit(&loglog_n, &depth))
}

/// Queue-throughput microbenchmark: the classic *hold model* (pop one,
/// schedule one a short seeded delta ahead) at steady queue size `n`,
/// identical op sequence on the calendar [`EventQueue`] and the
/// [`BinaryHeapQueue`] reference.
#[derive(Debug, Clone, Copy)]
pub struct QueueBench {
    /// Steady queue size.
    pub n: usize,
    /// Hold operations timed.
    pub ops: usize,
    /// Calendar-queue throughput (events/sec).
    pub bucket_events_per_sec: f64,
    /// Binary-heap throughput (events/sec).
    pub heap_events_per_sec: f64,
}

/// Runs the hold-model benchmark at steady size `n` for `ops` holds.
pub fn queue_bench(n: usize, ops: usize, seed: u64) -> QueueBench {
    // owed: ROADMAP 8(a)
    fn hold<Q>(n: usize, ops: usize, seed: u64, queue: &mut Q) -> f64
    where
        Q: HoldQueue,
    {
        let mut rng = Pcg64::new(seed ^ BENCH_SALT, 0);
        for i in 0..n {
            queue.push(SimTime(rng.below(256)), i as u64);
        }
        let t0 = Instant::now();
        for _ in 0..ops {
            let (t, e) = queue.pull().expect("steady-state queue never empties");
            queue.push(SimTime(t.0 + 1 + rng.below(64)), std::hint::black_box(e));
        }
        ops as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    }
    let mut bucket: EventQueue<u64> = EventQueue::new();
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    QueueBench {
        n,
        ops,
        bucket_events_per_sec: hold(n, ops, seed, &mut bucket),
        heap_events_per_sec: hold(n, ops, seed, &mut heap),
    }
}

/// The hold-model surface both queue implementations expose.
trait HoldQueue {
    fn push(&mut self, at: SimTime, e: u64);
    fn pull(&mut self) -> Option<(SimTime, u64)>;
}

impl HoldQueue for EventQueue<u64> {
    fn push(&mut self, at: SimTime, e: u64) {
        self.schedule_at(at, e);
    }
    fn pull(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
}

impl HoldQueue for BinaryHeapQueue<u64> {
    fn push(&mut self, at: SimTime, e: u64) {
        self.schedule_at(at, e);
    }
    fn pull(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
}

/// Renders the sweep as a table.
pub fn to_table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale sweep — hops, LDT depth and state vs N",
        &["N", "log2 N", "hops mean", "hops max", "LDT depth", "LDT size", "rows/node"],
    );
    for c in cells {
        t.row(vec![
            c.n.to_string(),
            f2((c.n as f64).log2()),
            f3(c.hops_mean()),
            c.hops_max.to_string(),
            f3(c.depth_mean()),
            f2(c.size_mean()),
            f2(c.rows_per_node()),
        ]);
    }
    t
}

/// The `scale` sweep: route hops, LDT depth and state size as N grows by
/// decades, with each fitted against its claimed growth law. `--smoke`
/// runs N = 1e3 only, `--stretch` adds N = 1e6, `--workers <k>` shards
/// wiring and sampling (never changes results). The report carries only
/// deterministic quantities — identical bytes at any worker count.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let workers = args
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let seed = args.seed_or(DEFAULT_SEED);
    let mut cfg = if args.smoke {
        ScaleConfig::smoke(seed, workers)
    } else {
        ScaleConfig::standard(seed, workers)
    };
    if args.stretch {
        cfg = cfg.with_stretch();
    }

    let mut run = SweepRun::new("scale", seed);
    let mut cells: Vec<ScaleCell> = Vec::new();
    for &n in &cfg.populations {
        let cell = run_cell(&cfg, n);
        run.report.push_cell(
            Json::obj([
                ("n", Json::U64(cell.n as u64)),
                ("stationary", Json::U64(cell.stationary as u64)),
                ("mobile", Json::U64(cell.mobile as u64)),
                ("route_samples", Json::U64(cell.route_samples as u64)),
                ("ldt_samples", Json::U64(cell.ldt_samples as u64)),
            ]),
            &Telemetry::default(),
            Json::obj([
                ("hops_mean", Json::F64(cell.hops_mean())),
                ("hops_max", Json::U64(cell.hops_max as u64)),
                ("ldt_depth_mean", Json::F64(cell.depth_mean())),
                ("ldt_size_mean", Json::F64(cell.size_mean())),
                ("table_rows", Json::U64(cell.table_rows)),
                ("rows_per_node", Json::F64(cell.rows_per_node())),
            ]),
        );
        cells.push(cell);
    }
    run.tables.push(to_table(&cells));

    let (hop_fit, depth_fit) = growth_fits(&cells);
    run.lines.push(format!(
        "fit: hops ≈ {}·log2 N + {} (R² {}) — consistent with O(log N) iff slope small & stable",
        f3(hop_fit.slope),
        f3(hop_fit.intercept),
        f3(hop_fit.r2)
    ));
    run.lines.push(format!(
        "fit: LDT depth ≈ {}·log2 log2 N + {} (R² {})",
        f3(depth_fit.slope),
        f3(depth_fit.intercept),
        f3(depth_fit.r2)
    ));
    run.report.push_cell(
        Json::obj([("cell", Json::Str("growth_fits".into()))]),
        &Telemetry::default(),
        Json::obj([
            ("hops_vs_log2n_slope", Json::F64(hop_fit.slope)),
            ("hops_vs_log2n_intercept", Json::F64(hop_fit.intercept)),
            ("hops_vs_log2n_r2", Json::F64(hop_fit.r2)),
            ("depth_vs_loglog2n_slope", Json::F64(depth_fit.slope)),
            ("depth_vs_loglog2n_intercept", Json::F64(depth_fit.intercept)),
            ("depth_vs_loglog2n_r2", Json::F64(depth_fit.r2)),
        ]),
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_sampling_is_worker_count_invariant() {
        let sys = BristleBuilder::new(5)
            .stationary_nodes(120)
            .mobile_nodes(40)
            .topology(TransitStubConfig::tiny())
            .build()
            .unwrap();
        let a = sample_routes(&sys.mobile, 5, 300, 1);
        let b = sample_routes(&sys.mobile, 5, 300, 4);
        let c = sample_routes(&sys.mobile, 5, 300, 7);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a.iter().any(|&h| h > 0), "some routes must take hops");
    }

    #[test]
    fn cells_are_deterministic_across_runs() {
        let cfg = ScaleConfig {
            populations: vec![200],
            route_samples: 100,
            ldt_samples: 30,
            seed: 8,
            workers: 2,
        };
        let a = run_cell(&cfg, 200);
        let b = run_cell(&cfg, 200);
        assert_eq!(a, b);
        let seq = ScaleConfig { workers: 1, ..cfg };
        let c = run_cell(&seq, 200);
        assert_eq!(a, c, "worker count must not change measurements");
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let f = linear_fit(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hops_grow_sublinearly_with_n() {
        let cfg = ScaleConfig {
            populations: vec![128, 1024],
            route_samples: 300,
            ldt_samples: 50,
            seed: 8,
            workers: 2,
        };
        let cells: Vec<ScaleCell> = cfg.populations.iter().map(|&n| run_cell(&cfg, n)).collect();
        let (hop_fit, _) = growth_fits(&cells);
        // 8× population growth must cost far less than 8× hops: the
        // log-law slope stays small and positive.
        assert!(cells[1].hops_mean() < cells[0].hops_mean() * 3.0);
        assert!(hop_fit.slope > 0.0, "hops must grow with N");
        assert!(hop_fit.slope < 2.0, "slope per doubling stays logarithmic");
    }

    #[test]
    fn queue_bench_runs_both_queues() {
        let b = queue_bench(1_000, 20_000, 8);
        assert!(b.bucket_events_per_sec > 0.0);
        assert!(b.heap_events_per_sec > 0.0);
    }
}
