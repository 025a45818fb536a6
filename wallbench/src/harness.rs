//! What every workload shares: the run context, the timed window, the
//! end-to-end metric arithmetic and the process-level probes.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bristle_core::system::BristleSystem;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::Meter;

use crate::control::Control;
use crate::json::Json;
use crate::metrics::{Values, END_TO_END};
use crate::span::{self, Tracer, NAMES};
use crate::stats::{median_f64, percentile_sorted, slice_rates};

/// Salt of the op-list stream (stable: results at a seed depend on it).
const OPS_SALT: u64 = 0x0b15_71e0_0b5e_ed01;

/// Raw-span budget of a traced pass: the first ops' spans are kept until
/// this many are held (all spans are folded into per-name totals
/// regardless).
pub const KEEP_SPANS: usize = 5_000;

/// Slices the window is cut into for `sim.ops_per_s_decay` (last slice's
/// op rate ÷ first slice's).
const RATE_SLICES: usize = 10;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    /// Ops in the timed window.
    pub ops: usize,
    /// Untimed warm-up ops before it, part of set-up (2 % of `ops`).
    pub warmup: usize,
    /// Whether to run the traced pass and the per-layer cells as well.
    pub trace: bool,
    /// How many times set-up and the untraced window are run: `setup_s`
    /// is the fastest set-up, each op's time its fastest repetition.
    pub reps: usize,
    /// Directory this process may write under (WAL files).
    pub scratch: PathBuf,
}

impl Ctx {
    /// The op-list RNG for this seed; `stream` separates independent lists.
    pub fn op_rng(&self, stream: u64) -> Pcg64 {
        Pcg64::new(self.seed ^ OPS_SALT, stream)
    }

    /// `count` uniformly random ordered pairs of distinct node keys.
    pub fn random_pairs(&self, keys: &[Key], count: usize, stream: u64) -> Vec<(Key, Key)> {
        let mut rng = self.op_rng(stream);
        (0..count)
            .map(|_| {
                let a = rng.index(keys.len());
                let mut b = rng.index(keys.len() - 1);
                if b >= a {
                    b += 1;
                }
                (keys[a], keys[b])
            })
            .collect()
    }
}

/// Every node key of `sys`, stationary first, in admission order.
pub fn all_keys(sys: &BristleSystem) -> Vec<Key> {
    sys.stationary_keys().iter().chain(sys.mobile_keys()).copied().collect()
}

/// The timed window of one pass: host time per op plus the meter delta.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Nanoseconds each op took, in execution order.
    pub op_ns: Vec<u64>,
    /// Ops whose outputs failed the workload's check.
    pub failed: u64,
    /// `Meter::total_messages` delta over the window.
    pub msgs: u64,
    /// `Meter::total_cost` delta over the window.
    pub cost: u64,
}

impl Window {
    pub fn with_capacity(ops: usize) -> Self {
        Window { op_ns: Vec::with_capacity(ops), ..Window::default() }
    }

    /// Times `op` and records whether its outputs checked out.
    #[inline]
    pub fn op(&mut self, op: impl FnOnce() -> bool) {
        let t = Instant::now();
        let ok = op();
        self.op_ns.push(t.elapsed().as_nanos() as u64);
        if !ok {
            self.failed += 1;
        }
    }

    /// Records the meter delta since `before`.
    pub fn close(&mut self, before: (u64, u64), meter: &Meter) {
        self.msgs = meter.total_messages() - before.0;
        self.cost = meter.total_cost() - before.1;
    }

    pub fn ops(&self) -> u64 {
        self.op_ns.len() as u64
    }

    /// Seconds spent inside ops (checks between ops are not counted).
    pub fn seconds(&self) -> f64 {
        self.op_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Last-slice op rate ÷ first-slice op rate.
    pub fn decay(&self) -> f64 {
        let r = slice_rates(&self.op_ns, RATE_SLICES);
        r[r.len() - 1] / r[0]
    }

    pub fn p99_us(&self) -> f64 {
        let mut v = self.op_ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, 0.99) as f64 / 1e3
    }

    pub fn p50_ns(&self) -> f64 {
        let mut v = self.op_ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, 0.5) as f64
    }
}

/// `(total_messages, total_cost)` now, for [`Window::close`].
pub fn meter_mark(meter: &Meter) -> (u64, u64) {
    (meter.total_messages(), meter.total_cost())
}

/// The untraced measurement of one run: set-up and the timed window,
/// [`Ctx::reps`] times over.
pub struct Measured<W> {
    /// The last repetition's world, after its window.
    pub world: W,
    /// What each repetition measured on its own.
    pub reps: Reps,
    /// The repetitions' windows folded into one: see [`fastest_of`].
    pub window: Window,
    /// `VmHWM` after the first repetition, in MiB. Later repetitions
    /// start from whatever the allocator kept of the earlier ones, which
    /// moves the high-water mark by several percent from run to run; the
    /// first starts from a fresh heap.
    pub peak_rss_mib: f64,
    /// Set when the repetitions did not do identical work.
    pub errors: Vec<String>,
}

/// Runs `setup` then `window` on its result, [`Ctx::reps`] times, each
/// world dropped before the next is built (so peak memory is one
/// world's). Every repetition builds the same system and runs the same
/// op list, so op `i` is the same work each time.
pub fn measure<W>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> W,
    mut window: impl FnMut(&mut W) -> Window,
) -> Measured<W> {
    let mut setup_secs = Vec::with_capacity(ctx.reps);
    let mut windows = Vec::with_capacity(ctx.reps);
    let mut control_ms = Vec::with_capacity(ctx.reps);
    let mut world = None;
    let mut first_peak = 0.0;
    for rep in 0..ctx.reps {
        drop(world.take());
        let t = Instant::now();
        let mut w = setup();
        setup_secs.push(t.elapsed().as_secs_f64());
        windows.push(window(&mut w));
        if rep == 0 {
            first_peak = peak_rss_mib();
        }
        // After the peak is read: the control's table must not count in it.
        control_ms.push(Control::new().sample_ms());
        world = Some(w);
    }
    let mut errors = Vec::new();
    if windows.iter().any(|w| (w.msgs, w.cost) != (windows[0].msgs, windows[0].cost)) {
        errors.push("repetitions of one op list metered different traffic".to_string());
    }
    Measured {
        world: world.expect("at least one repetition ran"),
        reps: Reps {
            setup_s: setup_secs,
            ops_per_s: windows.iter().map(|w| w.ops() as f64 / w.seconds()).collect(),
            op_p50_us: windows.iter().map(|w| w.p50_ns() / 1e3).collect(),
            control_ms,
        },
        window: fastest_of(&windows),
        peak_rss_mib: first_peak,
        errors,
    }
}

/// What each repetition of a run measured on its own, in execution
/// order. The end-to-end figures are the repeatable part of these (the
/// fastest set-up, the per-op fastest window); the lists go into the
/// result file so that `agree` can read the host's noise during the run
/// off them, and the median repetition's plain `ops_per_s` is printed
/// beside the headline one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reps {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Each window's ops ÷ its own time inside ops.
    pub ops_per_s: Vec<f64>,
    /// Each window's own median op time.
    pub op_p50_us: Vec<f64>,
    /// The [`Control`] kernel, timed after each repetition's window.
    pub control_ms: Vec<f64>,
}

impl Reps {
    /// The lists by name, as the result file carries them.
    pub fn by_name(&self) -> [(&'static str, &[f64]); 4] {
        [
            ("setup_s", &self.setup_s),
            ("ops_per_s", &self.ops_per_s),
            ("op_p50_us", &self.op_p50_us),
            ("control_ms", &self.control_ms),
        ]
    }

    /// Plain ops ÷ window time of the median repetition: a throughput a
    /// window of this run actually achieved, stalls included.
    pub fn median_ops_per_s(&self) -> f64 {
        median_f64(&self.ops_per_s)
    }
}

/// Folds repetitions of one window into one: each op's time is its
/// fastest repetition. The repetitions do identical work, and whatever
/// else the host is running can only slow an op down, never speed it
/// up, so the minimum is the repeatable part of the measurement. (On
/// the 2-core box this was sized on, a fixed compute kernel runs
/// anywhere from 1.0x to 1.4x its best time, drifting over seconds; the
/// mean of a 10 s window moves by a tenth or more between runs, the
/// fastest of five short repetitions by a few percent.) Failures add up.
pub fn fastest_of(windows: &[Window]) -> Window {
    let first = &windows[0];
    let op_ns = (0..first.op_ns.len())
        .map(|i| windows.iter().map(|w| w.op_ns[i]).min().expect("non-empty"))
        .collect();
    Window {
        op_ns,
        failed: windows.iter().map(|w| w.failed).sum(),
        msgs: first.msgs,
        cost: first.cost,
    }
}

impl<W> Measured<W> {
    /// The outcome so far: end-to-end metrics, no per-layer ones yet.
    pub fn outcome(&self, ctx: &Ctx) -> Outcome {
        Outcome {
            attempted: self.window.ops() * ctx.reps as u64,
            failed: self.window.failed,
            errors: self.errors.clone(),
            e2e: end_to_end(&self.reps.setup_s, &self.window, self.peak_rss_mib),
            layer: Values::default(),
            reps: self.reps.clone(),
            spans: None,
        }
    }
}

/// The end-to-end metrics of the untraced measurement.
fn end_to_end(setup_secs: &[f64], w: &Window, peak_rss_mib: f64) -> Values {
    let ops = w.ops().max(1) as f64;
    let mut v = Values::default();
    // Like an op, a set-up is only ever slowed by whatever else the host
    // runs; sub-second set-ups moved by half between runs as a median.
    v.set("setup_s", setup_secs.iter().copied().fold(f64::INFINITY, f64::min));
    v.set("ops_per_s", ops / w.seconds());
    v.set("op_p50_us", w.p50_ns() / 1e3);
    v.set("peak_rss_mib", peak_rss_mib);
    v.set("msgs_per_op", w.msgs as f64 / ops);
    v.set("path_cost_per_op", w.cost as f64 / ops);
    v.ordered(END_TO_END)
}

impl Outcome {
    /// Whether every op and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Adds the traced pass's results.
    pub fn traced(&mut self, tw: &Window, mut layer: Values, tracer: &Tracer) {
        self.failed += tw.failed;
        self.attempted += tw.ops();
        layer.set("bench.ops_per_s_median_rep", self.reps.median_ops_per_s());
        self.layer = layer;
        self.spans = Some(spans_json(tracer));
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed whole-run checks (tally mismatch, drops, ...); any entry
    /// makes the run incorrect.
    pub errors: Vec<String>,
    pub e2e: Values,
    /// Empty unless the traced pass ran; only what the workload executed.
    pub layer: Values,
    pub reps: Reps,
    /// The traced pass's spans, for the result file.
    pub spans: Option<Json>,
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// `VmRSS` of this process in bytes.
pub fn rss_bytes() -> f64 {
    proc_status_kb("VmRSS:") * 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Cost of one `Instant::now()` + `elapsed()` pair, in nanoseconds.
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        acc += std::hint::black_box(t.elapsed()).as_nanos();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Mean nanoseconds per call of `f` over `iters` calls.
pub fn time_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The `bench.*` metrics every traced pass reports.
pub fn bench_metrics(layer: &mut Values, untraced: &Window, traced: &Window, tracer: &Tracer) {
    layer.set("bench.op_p99_us", untraced.p99_us());
    layer.set("bench.timer_ns", timer_ns());
    layer.set("bench.trace_overhead_share", traced.seconds() / untraced.seconds() - 1.0);
    let op = tracer.agg(span::OP);
    let below: u64 =
        tracer.aggs().filter(|(n, _)| *n != NAMES[span::OP as usize]).map(|(_, a)| a.self_ns).sum();
    layer.set("bench.trace_coverage_share", below as f64 / op.total_ns.max(1) as f64);
}

/// The traced pass as JSON: per-name totals plus the raw spans of the
/// first ops (see [`KEEP_SPANS`]).
pub fn spans_json(tracer: &Tracer) -> Json {
    let names = tracer.aggs().map(|(name, a)| {
        (
            name,
            Json::obj([
                ("count", Json::Num(a.count as f64)),
                ("total_ns", Json::Num(a.total_ns as f64)),
                ("self_ns", Json::Num(a.self_ns as f64)),
            ]),
        )
    });
    let raw = tracer.kept().iter().map(|s| {
        Json::obj([
            ("name", Json::Str(NAMES[s.name as usize].into())),
            ("op", Json::Num(f64::from(s.op))),
            (
                "parent",
                if s.parent == span::NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                },
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ])
    });
    let cost = tracer.cost();
    Json::obj([
        (
            "tracer_cost_ns",
            Json::obj([
                ("inside_span", Json::Num(cost.inside_ns)),
                ("added_to_parent", Json::Num(cost.outside_ns)),
            ]),
        ),
        ("by_name", Json::obj(names)),
        ("first_ops", Json::Arr(raw.collect())),
    ])
}

/// A fresh, self-calibrated tracer behind the cell the
/// [`crate::span::Trace`] handle needs.
pub fn new_tracer() -> RefCell<Tracer> {
    Tracer::calibrated(KEEP_SPANS)
}

/// Where WAL files and child result files go: inside the directory the
/// benchmark is run from, never the system temp dir.
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// This process's scratch directory, removed when dropped — on return
/// and on unwind.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<prefix><pid>` under [`SCRATCH_ROOT`], first sweeping out
    /// directories whose owning process is gone (a killed run cannot
    /// clean up after itself).
    pub fn create(prefix: &str) -> Scratch {
        let root = Path::new(SCRATCH_ROOT);
        if let Ok(entries) = std::fs::read_dir(root) {
            for e in entries.flatten() {
                let name = e.file_name();
                let pid = name.to_str().and_then(|n| n.rsplit('-').next()?.parse::<u32>().ok());
                if pid.is_some_and(|pid| !Path::new("/proc").join(pid.to_string()).exists()) {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        let scratch = Scratch(root.join(format!("{prefix}{}", std::process::id())));
        std::fs::create_dir_all(scratch.path()).expect("scratch directory is creatable");
        scratch
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared root goes too once the last run under it is done
        // (`remove_dir` refuses a non-empty directory).
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_of_takes_each_op_from_its_quickest_repetition() {
        let rep = |op_ns: Vec<u64>, failed| Window { op_ns, failed, msgs: 7, cost: 70 };
        let w = fastest_of(&[
            rep(vec![10, 50, 30], 0),
            rep(vec![12, 20, 90], 1),
            rep(vec![11, 25, 31], 0),
        ]);
        assert_eq!(w.op_ns, vec![10, 20, 30]);
        assert_eq!((w.failed, w.msgs, w.cost), (1, 7, 70));
        assert_eq!(w.p50_ns(), 20.0);
        assert!((w.seconds() - 60e-9).abs() < 1e-15);
    }
}
