//! Host-time benchmark of the MCN simulator on three paper workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb_mem --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` repeats the workload's cells for `--seconds` and reports
//! `run_s` (the sum over cells of each cell's median), the median
//! `setup_s` and `peak_rss_mib`. Both times are CPU seconds scaled to the
//! reference host's speed by a reference kernel timed between the cells
//! (see `calib.rs`). `--trace 1` alternates untraced and
//! traced repetitions (spans around every call into the simulator, timed
//! process wrappers) for `--seconds`, times the layer drivers on the
//! workload's shapes, and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object. See `WORKLOADS.md`
//! for the workloads and what each metric should move.

mod calib;
mod counts;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

use counts::Counts;
use layers::{MemAccess, MemShape, NsPerUnit};
use trace::Tracer;
use workloads::{Cell, PollTimer, SimOut, Workload, CELL_IDS};
use workloads::{NPB_DIMMS, NPB_HOST_RANKS, NPB_PER_DIMM};

/// Engine workers of every measured datacenter run. One worker: at two,
/// on a two-core host, the run's host time swings by 2x with load from
/// outside the process (see WORKLOADS.md), too much to gate.
const WORKERS: usize = 1;
/// Engine workers of the traced run's parallel probe on `dc_kv`: the
/// host's two cores. This is the only place the benchmark asks for
/// threads.
const PARALLEL_WORKERS: usize = 2;
/// Seed of the self-test; never used while the workloads were sized.
const HELD_OUT_SEED: u64 = 0x0DD5_EED5;
/// Host time spent on the set-up rounds timed for `setup_s`.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Host time between reference kernel samples during the set-up rounds.
const SETUP_SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Repetitions measured even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload npb_mem|iperf_levels|dc_kv --seed N --seconds S --trace 0|1\n       perfbench --self-test"
    );
    exit(2);
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return None;
        }
        let val = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |_| usage(&format!("bad value {val:?} for {flag}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val:?}"))),
                )
            }
            "--seed" => seed = val.parse().unwrap_or_else(bad),
            "--seconds" => seconds = val.parse().unwrap_or_else(bad),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Some(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Optional tracer: every call is a no-op on an untraced repetition.
struct Probe<'a>(Option<&'a mut Tracer>);

impl Probe<'_> {
    fn open(&mut self, name: impl Into<String>) {
        if let Some(t) = self.0.as_deref_mut() {
            t.open(name);
        }
    }
    fn close(&mut self) {
        if let Some(t) = self.0.as_deref_mut() {
            t.close();
        }
    }
    fn step(&mut self, name: &str) {
        if let Some(t) = self.0.as_deref_mut() {
            t.step(name);
        }
    }
}

/// What a repetition keeps of a cell's read-out: not the snapshot, so
/// that memory use does not grow with the number of repetitions.
struct CellOut {
    digest: u64,
    sim: SimOut,
    counts: Counts,
}

/// One repetition: every cell of the workload, set up, simulated and read
/// out in turn. Times are CPU seconds of this process, unscaled; the
/// reference kernel is timed before the first cell and after each cell.
struct Rep {
    run_s: f64,
    /// Run time of each cell, in `cells` order.
    cell_run_s: Vec<f64>,
    /// Wall-clock seconds of the cells' runs.
    wall_s: f64,
    /// CPU seconds of each reference kernel call, `[frames, chase]`.
    ref_s: Vec<[f64; 2]>,
    cells: Vec<(Cell, Result<CellOut, String>)>,
}

fn run_rep(
    w: Workload,
    seed: u64,
    threads: usize,
    tracer: Option<&mut Tracer>,
    timer: Option<&PollTimer>,
) -> Rep {
    let mut probe = Probe(tracer);
    let (mut run_s, mut wall_s) = (0.0, 0.0);
    let (mut cells, mut cell_run_s) = (Vec::new(), Vec::new());
    let mut ref_s = vec![calib::sample()];
    for cell in w.cells() {
        let open_before = probe.0.as_deref().map_or(0, Tracer::depth);
        let mut cell_s = 0.0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            probe.open(format!("cell:{}", cell.id()));
            probe.open("setup");
            let mut built = cell.setup(seed, timer);
            probe.close();
            let w1 = Instant::now();
            let t1 = calib::cpu_seconds();
            probe.open("simulate");
            let simulated = built.simulate(threads);
            probe.close();
            probe.open("readout");
            let out = simulated.and_then(|()| built.readout(&mut |s| probe.step(s)));
            cell_s = calib::cpu_seconds() - t1;
            wall_s += w1.elapsed().as_secs_f64();
            probe.close();
            probe.close();
            out.map(|r| CellOut {
                digest: r.digest,
                sim: r.sim,
                counts: Counts::from_snapshot(&r.snap),
            })
        }));
        let out = outcome.unwrap_or_else(|panic| {
            if let Some(t) = probe.0.as_deref_mut() {
                t.unwind_to(open_before);
            }
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
        ref_s.push(calib::sample());
        run_s += cell_s;
        cell_run_s.push(cell_s);
        cells.push((cell, out));
    }
    Rep {
        run_s,
        cell_run_s,
        wall_s,
        ref_s,
        cells,
    }
}

/// CPU seconds to set up every cell of the workload once: the median
/// over rounds that each set up every cell and drop the models untimed,
/// repeated for `SETUP_BUDGET` (one set-up takes well under a
/// millisecond). Measured before any simulation, on the same fresh heap
/// in every run: set-ups timed between repetitions read up to twice as
/// long after some seeds' simulations as after others', with the
/// allocator's state, not the set-up's work, making the difference.
/// Also returns the median reference kernel part times, sampled every
/// `SETUP_SAMPLE_EVERY` between the rounds.
fn setup_seconds(w: Workload, seed: u64) -> (f64, [f64; 2]) {
    let t0 = Instant::now();
    let (mut rounds, mut refs) = (Vec::new(), vec![calib::sample()]);
    let mut sampled = Instant::now();
    while rounds.len() < MIN_REPS || t0.elapsed() < SETUP_BUDGET {
        let round = w
            .cells()
            .into_iter()
            .map(|cell| {
                let c0 = calib::cpu_seconds();
                let built = cell.setup(seed, None);
                let c = calib::cpu_seconds() - c0;
                drop(built);
                c
            })
            .sum();
        rounds.push(round);
        if sampled.elapsed() >= SETUP_SAMPLE_EVERY {
            refs.push(calib::sample());
            sampled = Instant::now();
        }
    }
    refs.push(calib::sample());
    (median(rounds), part_medians(&refs))
}

/// Counts attempted and failed cells, and fails a cell whose snapshot
/// digest differs from the first one seen for it at this seed.
#[derive(Default)]
struct Checker {
    digests: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, rep: &Rep, context: &str) {
        for (cell, out) in &rep.cells {
            self.attempted += 1;
            let verdict = out.as_ref().map_err(Clone::clone).and_then(|o| {
                let first = *self.digests.entry(cell.id()).or_insert(o.digest);
                if first == o.digest {
                    Ok(())
                } else {
                    Err(format!(
                        "digest {:016x} differs from {first:016x}",
                        o.digest
                    ))
                }
            });
            if let Err(why) = verdict {
                self.failed += 1;
                eprintln!("perfbench: cell {} failed ({context}): {why}", cell.id());
            }
        }
    }
}

/// Repeats the workload until `budget` has passed and at least
/// `MIN_REPS` repetitions ran.
fn repeat(w: Workload, seed: u64, budget: Duration, checker: &mut Checker) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed() < budget {
        let rep = run_rep(w, seed, WORKERS, None, None);
        checker.check(&rep, "untraced");
        reps.push(rep);
    }
    reps
}

/// Median CPU seconds of each reference kernel part over `samples`.
fn part_medians(samples: &[[f64; 2]]) -> [f64; 2] {
    let part = |i: usize| median(samples.iter().map(|r| r[i]).collect());
    [part(0), part(1)]
}

/// Median CPU seconds of each reference kernel part over `reps`.
fn ref_medians(reps: &[Rep]) -> [f64; 2] {
    let samples: Vec<[f64; 2]> = reps.iter().flat_map(|x| x.ref_s.iter().copied()).collect();
    part_medians(&samples)
}

/// The part of the reference kernel whose speed tracks the workload's:
/// the one shaped like the layers that do the workload's work. Through
/// slow and fast spells, `chase` tracked `npb_mem` (the DRAM and
/// memory-job models), whose speed `frames` overshot, and `frames`
/// tracked `iperf_levels` and `dc_kv` (the network stack, drivers and
/// serving tier), whose speed `chase` undershot (see WORKLOADS.md).
fn reference_part(w: Workload) -> calib::Part {
    match w {
        Workload::NpbMem => calib::Part::Chase,
        Workload::IperfLevels | Workload::DcKv => calib::Part::Frames,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), less the
/// reference kernel's table, which stays resident from start-up on and
/// is not the simulator's memory.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| {
            (kib * 1024.0 - calib::TABLE_BYTES as f64) / (1 << 20) as f64
        })
}

/// The result object: metric name → (value, unit), in insertion order.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        self.metrics.push((
            name.into(),
            if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
        ));
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Prints the workload's simulated outputs beside the paper's values
/// (EXPERIMENTS.md). Informational only; nothing here is gated.
fn print_paper_reference(rep: &Rep) {
    let sims: Vec<(Cell, SimOut)> = rep
        .cells
        .iter()
        .filter_map(|(c, o)| Some((*c, o.as_ref().ok()?.sim)))
        .collect();
    let gbe = sims
        .iter()
        .find(|(c, _)| *c == Cell::Iperf(None))
        .map(|(_, s)| s.gbps);
    // Fig. 8(a) host-mcn bandwidth normalised to 10GbE, mcn0..mcn5.
    const FIG8A: [f64; 6] = [1.30, 1.30, 1.34, 2.67, 3.51, 4.56];
    for (cell, s) in &sims {
        let id = cell.id();
        match cell {
            Cell::Iperf(Some(l)) => {
                let ratio = gbe.map_or(0.0, |g| s.gbps / g);
                println!(
                    "paper-ref {id}: {:.2} Gbps (unvalidated: paper gives no absolute rate); {ratio:.2}x of 10GbE vs paper {:.2}x",
                    s.gbps, FIG8A[*l as usize]
                );
            }
            Cell::Iperf(None) => println!("paper-ref {id}: {:.2} Gbps (unvalidated: the paper's normalisation base)", s.gbps),
            Cell::Npb(_) => println!(
                "paper-ref {id}: completion {:.3} ms, aggregate DRAM {:.2} GB/s (unvalidated: paper gives only \
                 bandwidth normalised to a conventional server, 1.76x mean at 2 DIMMs, scaled-down run)",
                s.elapsed.as_secs_f64() * 1e3,
                s.dram_bw / 1e9
            ),
            Cell::DcKv => println!(
                "paper-ref {id}: intra p50 {:.1} us p99 {:.1} us, cross-pod p50 {:.1} us p99 {:.1} us (unvalidated: \
                 the paper has no KV tier)",
                s.kv_us[0], s.kv_us[1], s.kv_us[2], s.kv_us[3]
            ),
        }
    }
}

fn untraced(a: &Args) -> Report {
    let (setup_s, setup_refs) = setup_seconds(a.workload, a.seed);
    let mut checker = Checker::default();
    let reps = repeat(
        a.workload,
        a.seed,
        Duration::from_secs(a.seconds),
        &mut checker,
    );
    print_paper_reference(&reps[0]);
    for rep in &reps {
        let cells: Vec<String> = rep.cell_run_s.iter().map(|t| format!("{t:.4}")).collect();
        let refs: Vec<String> = rep
            .ref_s
            .iter()
            .map(|[f, c]| format!("{f:.5}/{c:.5}"))
            .collect();
        eprintln!(
            "perfbench: rep cpu run_s {:.4} wall_s {:.4} cells {} ref {}",
            rep.run_s,
            rep.wall_s,
            cells.join(" "),
            refs.join(" ")
        );
    }
    let mut r = Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: Vec::new(),
    };
    // The sum over cells of each cell's median: the steadiest of the
    // estimators tried against load swings from outside the process,
    // which move every cell of a repetition together for seconds at a
    // time. Both times are then scaled by the whole run's median
    // reference kernel times: one scale per run, because a single
    // kernel call is too short to read a cell's host speed from it.
    let part = reference_part(a.workload);
    let medians = ref_medians(&reps);
    let scale = calib::scale(part, medians);
    let setup_scale = calib::scale(part, setup_refs);
    let cells = reps[0].cell_run_s.len();
    let run_s: f64 = (0..cells)
        .map(|i| median(reps.iter().map(|x| x.cell_run_s[i]).collect()))
        .sum();
    eprintln!(
        "perfbench: cpu run_s {run_s:.4} setup_s {setup_s:.6}, reference medians frames {:.5} s chase {:.5} s (set-up: {:.5} s, {:.5} s), scale {scale:.4}",
        medians[0], medians[1], setup_refs[0], setup_refs[1]
    );
    r.put("run_s", run_s * scale, "s");
    r.put("setup_s", setup_s * setup_scale, "s");
    r.put("peak_rss_mib", peak_rss_mib(), "MiB");
    r
}

/// The node types of a cell's memory traffic: the shape, whether the node
/// is an MCN DIMM (else a host), and the share of the cell's channel
/// operations it carries.
fn mem_shapes(cell: Cell, c: &Counts) -> Vec<(MemShape, bool, f64)> {
    let sys = mcn::SystemConfig::default();
    let frame = |jobs, mlp, access| MemShape {
        jobs,
        channels: sys.host_channels,
        mlp,
        bytes: c.mean_frame() as u64,
        access,
    };
    match cell {
        Cell::Npb(_) => {
            // Every rank streams the same bytes: the host's ranks share its
            // channels, each DIMM's ranks share the DIMM's.
            let spec = cell.npb_spec().expect("npb cell");
            let (host, per_dimm) = (NPB_HOST_RANKS, NPB_PER_DIMM);
            let dimm_ranks = NPB_DIMMS * per_dimm;
            let size = (host + dimm_ranks) as u64;
            let access = MemAccess::Stream {
                read_frac: spec.read_frac,
                random: spec.random_access,
            };
            let bytes = (spec.mem_bytes_per_iter / size).max(4096);
            let node = |jobs, channels| MemShape {
                jobs,
                channels,
                mlp: 10,
                bytes,
                access,
            };
            vec![
                (
                    node(host, sys.host_channels),
                    false,
                    host as f64 / size as f64,
                ),
                (
                    node(per_dimm, sys.mcn_channels),
                    true,
                    dimm_ranks as f64 / size as f64,
                ),
            ]
        }
        // KV servers and clients live on hosts: their frames cross NICs.
        Cell::Iperf(None) | Cell::DcKv => vec![(frame(1, 10, MemAccess::NicDma), false, 1.0)],
        Cell::Iperf(Some(_)) => {
            let mlp = if cell.mcn().is_some_and(|m| m.dma) {
                16
            } else {
                4
            };
            vec![(frame(4, mlp, MemAccess::SramCopy), false, 1.0)]
        }
    }
}

/// Per-cell layer unit costs, each measured by a driver.
struct Costs {
    dram: NsPerUnit,
    mem: NsPerUnit,
    queue: NsPerUnit,
    net_data: NsPerUnit,
    net_ack: NsPerUnit,
    sram: NsPerUnit,
}

fn measure_costs(cell: Cell, c: &Counts, cache: &mut BTreeMap<String, f64>) -> Costs {
    let sys = mcn::SystemConfig::default();
    // Frames between hosts cross NICs, whose stacks always checksum.
    let checksum = match cell {
        Cell::Iperf(None) | Cell::DcKv => true,
        _ => cell.mcn().is_none_or(|m| !m.checksum_bypass),
    };
    let (mut dram, mut mem) = (0.0, 0.0);
    for (shape, on_dimm, weight) in mem_shapes(cell, c) {
        let cfg = if on_dimm {
            &sys.mcn_dram
        } else {
            &sys.host_dram
        };
        let key = format!("{shape:?} dimm={on_dimm}");
        dram += weight
            * *cache
                .entry(format!("dram {key}"))
                .or_insert_with(|| layers::dram_channel(cfg, shape));
        mem += weight
            * *cache
                .entry(format!("mem {key}"))
                .or_insert_with(|| layers::memory_system(cfg, shape));
    }
    let mut cached = |key: String, f: &dyn Fn() -> f64| *cache.entry(key).or_insert_with(f);
    let depth = match cell {
        Cell::Npb(_) => 3,
        Cell::Iperf(_) => 5,
        Cell::DcKv => 2,
    };
    let queue = cached(format!("queue {depth}"), &|| layers::event_queue(depth));
    let payload = c.mean_payload();
    let net_data = cached(format!("net {payload} {checksum}"), &|| {
        layers::net_codecs(payload, checksum)
    });
    let net_ack = cached(format!("net 0 {checksum}"), &|| {
        layers::net_codecs(0, checksum)
    });
    let frame = c.mean_frame();
    let sram = cached(format!("sram {frame}"), &|| layers::sram_ring(frame));
    Costs {
        dram,
        mem,
        queue,
        net_data,
        net_ack,
        sram,
    }
}

fn traced(a: &Args) -> Report {
    let w = a.workload;
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let (mut plain, mut reps, mut poll_s, mut parallel) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Untraced and traced repetitions alternate, each going first in every
    // other pair, so drift in the host's speed does not show up as
    // tracing overhead.
    let t0 = Instant::now();
    while reps.len() < MIN_REPS || t0.elapsed() < Duration::from_secs(a.seconds) {
        let traced_first = reps.len() % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if !traced_turn {
                let rep = run_rep(w, a.seed, WORKERS, None, None);
                checker.check(&rep, "untraced");
                plain.push(rep);
                continue;
            }
            let timer = PollTimer::default();
            tracer.set_run(reps.len() as u32 + 1);
            tracer.open("rep");
            let rep = run_rep(w, a.seed, WORKERS, Some(&mut tracer), Some(&timer));
            tracer.close();
            poll_s.push(timer.seconds());
            checker.check(&rep, "traced");
            reps.push(rep);
        }
        if w == Workload::DcKv {
            // The parallel engine must match the serial one byte for byte.
            let rep = run_rep(w, a.seed, PARALLEL_WORKERS, None, None);
            checker.check(&rep, "2 engine workers");
            parallel.push(rep.wall_s);
        }
    }
    let traced_runs: Vec<u32> = (1..=reps.len() as u32).collect();
    print_paper_reference(&reps[0]);

    let phase = |name: &str, parent: Option<&str>| {
        median(
            traced_runs
                .iter()
                .map(|&r| tracer.seconds(r, name, parent))
                .collect(),
        )
    };
    let simulate_s = phase("simulate", None);
    let run_traced = median(reps.iter().map(|x| x.run_s).collect());
    let run_plain = median(plain.iter().map(|x| x.run_s).collect());

    let mut r = Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: Vec::new(),
    };
    r.put("phase.setup_s", phase("setup", None), "s");
    r.put("phase.simulate_s", simulate_s, "s");
    r.put("phase.readout_s", phase("readout", None), "s");
    let mut dc_simulate_s = 0.0;
    for id in CELL_IDS {
        let s = phase("simulate", Some(&format!("cell:{id}")));
        if id == "dc_kv" {
            dc_simulate_s = s;
        }
        r.put(format!("cell.{id}.simulate_s"), s, "s");
    }
    r.put("trace.overhead", run_traced / run_plain - 1.0, "ratio");
    let plain_median = |f: fn(&Rep) -> f64| median(plain.iter().map(f).collect());
    r.put("host.run_cpu_s", run_plain, "s");
    r.put("host.run_wall_s", plain_median(|x| x.wall_s), "s");
    let [frames_s, chase_s] = ref_medians(&plain);
    r.put("host.ref_frames_s", frames_s, "s");
    r.put("host.ref_chase_s", chase_s, "s");

    // Work counts and driver-timed unit costs, cell by cell.
    let last = reps.last().expect("at least one traced repetition");
    let mut total = Counts::default();
    let mut cache = BTreeMap::new();
    let (mut dram_s, mut mem_s, mut queue_s, mut net_s, mut sram_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut mem_incl_s = 0.0;
    for (cell, out) in &last.cells {
        let Ok(out) = out else { continue };
        let c = out.counts;
        let k = measure_costs(*cell, &c, &mut cache);
        let ops = (c.lines + c.sram_ops) as f64;
        dram_s += k.dram * ops * 1e-9;
        mem_incl_s += k.mem * ops * 1e-9;
        mem_s += (k.mem - k.dram).max(0.0) * ops * 1e-9;
        queue_s += k.queue * c.advances as f64 * 1e-9;
        net_s += (k.net_data * c.data_segs as f64 + k.net_ack * c.acks as f64) * 1e-9;
        sram_s += k.sram * c.tx_frames as f64 * 1e-9;
        total += c;
    }
    let t = total;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let per = |secs: f64, n: u64, scale: f64| if n == 0 { 0.0 } else { secs / n as f64 * scale };
    let ops = t.lines + t.sram_ops;

    r.put("sim.engine.advances", t.advances as f64, "count");
    r.put(
        "sim.engine.component_polls",
        t.component_polls as f64,
        "count",
    );
    r.put("sim.engine.rounds", t.rounds as f64, "count");
    r.put(
        "sim.engine.host_ns_per_advance",
        per(simulate_s, t.advances, 1e9),
        "ns",
    );
    r.put(
        "sim.queue.host_ns_per_event",
        per(queue_s, t.advances, 1e9),
        "ns",
    );
    r.put("sim.shard.windows", t.windows as f64, "count");
    r.put("sim.shard.barriers", t.barriers as f64, "count");
    r.put("sim.shard.batch_jobs", t.batch_jobs as f64, "count");
    r.put("sim.shard.messages", t.messages as f64, "count");
    r.put(
        "sim.shard.pool_reuse_ratio",
        ratio(t.pool_reused, t.pool_reused + t.pool_allocated),
        "ratio",
    );
    r.put(
        "sim.shard.host_us_per_window",
        per(dc_simulate_s, t.windows, 1e6),
        "us",
    );
    let speedup = if parallel.is_empty() {
        0.0
    } else {
        plain_median(|x| x.wall_s) / median(parallel)
    };
    r.put("sim.shard.speedup_2w", speedup, "ratio");
    r.put("dram.channel.lines", t.lines as f64, "count");
    r.put("dram.channel.sram_ops", t.sram_ops as f64, "count");
    r.put(
        "dram.channel.row_hit_ratio",
        ratio(t.lines.saturating_sub(t.activates), t.lines),
        "ratio",
    );
    r.put(
        "dram.channel.busy_frac",
        ratio(t.busy_ps, t.channel_ps),
        "ratio",
    );
    r.put("dram.channel.host_ns_per_line", per(dram_s, ops, 1e9), "ns");
    r.put("node.mem.host_ns_per_line", per(mem_incl_s, ops, 1e9), "ns");
    r.put("net.stack.frames", t.frames as f64, "count");
    r.put("net.tcp.data_segs", t.data_segs as f64, "count");
    r.put("net.tcp.acks", t.acks as f64, "count");
    r.put("net.tcp.retransmits", t.retransmits as f64, "count");
    r.put("net.tcp.timeouts", t.timeouts as f64, "count");
    r.put(
        "net.tcp.goodput_ratio",
        ratio(t.bytes_delivered, t.bytes_sent),
        "ratio",
    );
    r.put(
        "net.host_ns_per_frame",
        per(net_s, t.data_segs + t.acks, 1e9),
        "ns",
    );
    r.put("mcn.driver.tx_frames", t.tx_frames as f64, "count");
    r.put("mcn.driver.rx_frames", t.rx_frames as f64, "count");
    r.put("mcn.driver.polls", t.polls as f64, "count");
    r.put(
        "mcn.driver.frames_per_poll",
        ratio(t.rx_frames, t.polls),
        "ratio",
    );
    r.put(
        "mcn.driver.ring_full_drops",
        t.ring_full_drops as f64,
        "count",
    );
    r.put(
        "mcn.sram.host_ns_per_frame",
        per(sram_s, t.tx_frames, 1e9),
        "ns",
    );
    r.put("mcn.fabric.routed", t.routed as f64, "count");
    r.put("mcn.fabric.forwarded", t.forwarded as f64, "count");
    r.put("mcn.fabric.dead_drops", t.dead_drops as f64, "count");
    r.put("serve.issued", t.issued as f64, "count");
    r.put("serve.answered", t.answered as f64, "count");
    r.put("serve.gave_up", t.gave_up as f64, "count");
    r.put("serve.retries", t.retries as f64, "count");
    r.put("proc.poll_s", median(poll_s), "s");
    let share = |secs: f64| {
        if simulate_s > 0.0 {
            secs / simulate_s
        } else {
            0.0
        }
    };
    let shares = [
        ("dram", dram_s),
        ("mem", mem_s),
        ("net", net_s),
        ("sram", sram_s),
        ("queue", queue_s),
    ];
    let mut attributed = 0.0;
    for (layer, secs) in shares {
        attributed += share(secs);
        r.put(format!("est.{layer}_share"), share(secs), "ratio");
    }
    r.put("est.unattributed_share", 1.0 - attributed, "ratio");

    let dir = std::path::Path::new("perfbench-out");
    let file = dir.join(format!("spans-{}-{}.jsonl", w.name(), a.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    r
}

/// Runs every workload once at the held-out seed; exit code 0 only if
/// every cell passes its output checks.
fn self_test() -> i32 {
    let mut failed = 0;
    for w in Workload::ALL {
        let mut checker = Checker::default();
        let rep = run_rep(w, HELD_OUT_SEED, WORKERS, None, None);
        checker.check(&rep, "self-test");
        if w == Workload::DcKv {
            checker.check(
                &run_rep(w, HELD_OUT_SEED, PARALLEL_WORKERS, None, None),
                "self-test, 2 engine workers",
            );
        }
        print_paper_reference(&rep);
        println!(
            "self-test {}: seed {HELD_OUT_SEED:#x}, {} cells, {} failed, run {:.3} s (CPU, unscaled)",
            w.name(),
            checker.attempted,
            checker.failed,
            rep.run_s
        );
        failed += checker.failed;
    }
    i32::from(failed > 0)
}

fn main() {
    // The first call builds the reference kernel's state and warms the
    // caches; later calls are the ones timed.
    calib::sample();
    let Some(args) = parse_args() else {
        exit(self_test())
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", result.to_json());
}
