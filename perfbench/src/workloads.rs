//! The three benchmark workloads, each a list of simulator cells.
//!
//! A cell goes through three timed phases: `setup` builds the topology
//! and spawns its processes, `simulate` runs the engine, and `readout`
//! absorbs the registry, rolls up energy, renders the snapshot JSON,
//! checks the scenario's invariants and drops the model. Only the public
//! API of the simulator crates is used.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use mcn::{Datacenter, EthernetCluster, McnConfig, McnSystem, SystemConfig};
use mcn_energy::{EnergyReport, PowerParams};
use mcn_mpi::placement::spawn_on_mcn;
use mcn_mpi::{CommPattern, IperfClient, IperfReport, IperfServer, WorkloadReport, WorkloadSpec};
use mcn_node::{Poll, ProcCtx, Process};
use mcn_serve::{Backend, KvServer, KvServerConfig, ReplicaMap, ResilientClientConfig};
use mcn_serve::{ResilientKvClient, ServeReport};
use mcn_sim::fault::FaultPlan;
use mcn_sim::{ComponentExt, MetricSink, MetricsSnapshot, OutageKind, OutagePlan, SimTime};
use mcn_sweep::scenarios::{kv_dc_workload, KvDcParams, KvReport};

/// The benchmark's workloads (see `WORKLOADS.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9's memory-bound family: NPB `cg` and `mg` on 2 DIMMs.
    NpbMem,
    /// Fig. 8(a)'s column: iperf at mcn0..mcn5 plus the 10GbE baseline.
    IperfLevels,
    /// The Clos-datacenter KV scenario with a mid-run spine loss.
    DcKv,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::NpbMem, Workload::IperfLevels, Workload::DcKv];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbMem => "npb_mem",
            Workload::IperfLevels => "iperf_levels",
            Workload::DcKv => "dc_kv",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cells one repetition of the workload runs, in order.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::NpbMem => vec![Cell::Npb("cg"), Cell::Npb("mg")],
            Workload::IperfLevels => (0..=5)
                .map(|l| Cell::Iperf(Some(l)))
                .chain([Cell::Iperf(None)])
                .collect(),
            Workload::DcKv => vec![Cell::DcKv],
        }
    }
}

/// Every cell id any workload runs (the per-cell trace metrics).
pub const CELL_IDS: [&str; 10] = [
    "npb_cg",
    "npb_mg",
    "iperf_mcn0",
    "iperf_mcn1",
    "iperf_mcn2",
    "iperf_mcn3",
    "iperf_mcn4",
    "iperf_mcn5",
    "iperf_10gbe",
    "dc_kv",
];

/// One simulator cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// An NPB signature on the Fig. 9 server.
    Npb(&'static str),
    /// Four DIMM→host iperf streams at a Table I level, or the 10GbE
    /// cluster baseline (`None`).
    Iperf(Option<u32>),
    /// The datacenter KV scenario.
    DcKv,
}

// --- Sizing. The paper-scale cells take 1-2 min (npb) and 2 s (iperf,
// 6 MiB per stream); these sizes keep every per-rank and per-frame shape
// and scale volumes down so that one repetition takes about two seconds.

/// Fig. 9 placement: 2 DIMMs at mcn3, 8 host ranks, 3 ranks per DIMM.
pub const NPB_DIMMS: usize = 2;
const NPB_LEVEL: u32 = 3;
pub const NPB_HOST_RANKS: usize = 8;
pub const NPB_PER_DIMM: usize = 3;
/// Iterations kept of the NPB signature's outer loop (paper: 3).
const NPB_ITERATIONS: u32 = 1;
/// Divisor applied to the signature's memory bytes, compute time and
/// message bytes per iteration alike, so each rank keeps its ratio of
/// memory traffic to messages.
const NPB_SCALE_DOWN: u64 = 64;
const NPB_DEADLINE: SimTime = SimTime::from_secs(30);

const IPERF_STREAMS: usize = 4;
const IPERF_PORT: u16 = 5001;
/// Bytes per stream (paper scale: 6 MiB).
const IPERF_BYTES: u64 = 512 << 10;
const IPERF_DEADLINE: SimTime = SimTime::from_secs(10);

/// Datacenter KV fleets, sized up from `dc_bench` (3 × 150, 80 ms).
const KV_CLIENTS_PER_FLEET: u64 = 9;
const KV_REQS_PER_CLIENT: u64 = 400;
const KV_HORIZON: SimTime = SimTime::from_ms(40);
const KV_SPINE_DOWN_AT: SimTime = SimTime::from_ms(8);
const KV_SPINE_DOWN_FOR: SimTime = SimTime::from_ms(2);
const KV_SLO: SimTime = SimTime::from_us(500);

impl Cell {
    /// Stable id used in metric names.
    pub fn id(self) -> String {
        match self {
            Cell::Npb(name) => format!("npb_{name}"),
            Cell::Iperf(Some(l)) => format!("iperf_mcn{l}"),
            Cell::Iperf(None) => "iperf_10gbe".into(),
            Cell::DcKv => "dc_kv".into(),
        }
    }

    /// The MCN configuration the cell runs at (`None` for 10GbE).
    pub fn mcn(self) -> Option<McnConfig> {
        match self {
            Cell::Npb(_) => Some(McnConfig::level(NPB_LEVEL)),
            Cell::Iperf(l) => l.map(McnConfig::level),
            Cell::DcKv => Some(McnConfig::level(3)),
        }
    }

    /// The scaled NPB signature of an `Npb` cell.
    pub fn npb_spec(self) -> Option<WorkloadSpec> {
        let Cell::Npb(name) = self else { return None };
        let paper = WorkloadSpec::by_name(name).expect("NPB signature exists");
        let div = NPB_SCALE_DOWN;
        let comm = match paper.comm {
            CommPattern::Neighbor { msg_bytes } => CommPattern::Neighbor {
                msg_bytes: msg_bytes / div,
            },
            CommPattern::Irregular { fanout, msg_bytes } => CommPattern::Irregular {
                fanout,
                msg_bytes: msg_bytes / div,
            },
            other => other,
        };
        Some(WorkloadSpec {
            iterations: NPB_ITERATIONS,
            mem_bytes_per_iter: paper.mem_bytes_per_iter / div,
            compute_ns_per_iter: paper.compute_ns_per_iter / div,
            comm,
            ..paper
        })
    }

    /// Builds the cell's topology and spawns its processes. With `timer`
    /// set, every process the benchmark spawns itself is wrapped so that
    /// its host time inside `poll` is accumulated there.
    pub fn setup(self, seed: u64, timer: Option<&PollTimer>) -> Built {
        let wrap = |p: Box<dyn Process>| -> Box<dyn Process> {
            match timer {
                Some(t) => Box::new(TimedProcess {
                    inner: p,
                    ns: t.0.clone(),
                }),
                None => p,
            }
        };
        let cfg = SystemConfig::default();
        match self {
            Cell::Npb(_) => {
                let spec = self.npb_spec().expect("npb cell");
                let plan = FaultPlan::new(seed);
                let mut sys =
                    McnSystem::with_faults(&cfg, NPB_DIMMS, McnConfig::level(NPB_LEVEL), &plan);
                let report = spawn_on_mcn(&mut sys, spec, NPB_HOST_RANKS, NPB_PER_DIMM, seed);
                Built::Npb { sys, report }
            }
            Cell::Iperf(Some(level)) => {
                let plan = FaultPlan::new(seed ^ u64::from(level));
                let mut sys =
                    McnSystem::with_faults(&cfg, IPERF_STREAMS, McnConfig::level(level), &plan);
                let srv = IperfReport::shared();
                // Zero warm-up: the meter accounts every payload byte.
                sys.spawn_host(
                    wrap(Box::new(IperfServer::new(
                        IPERF_PORT,
                        IPERF_STREAMS,
                        SimTime::ZERO,
                        srv.clone(),
                    ))),
                    0,
                );
                let dst = sys.host_rank_ip();
                for d in 0..IPERF_STREAMS {
                    let client =
                        IperfClient::new(dst, IPERF_PORT, IPERF_BYTES, IperfReport::shared());
                    sys.spawn_dimm(d, wrap(Box::new(client)), 1);
                }
                Built::IperfMcn { sys, srv }
            }
            Cell::Iperf(None) => {
                let mut c = EthernetCluster::new(&cfg, IPERF_STREAMS + 1);
                let srv = IperfReport::shared();
                c.spawn(
                    0,
                    wrap(Box::new(IperfServer::new(
                        IPERF_PORT,
                        IPERF_STREAMS,
                        SimTime::ZERO,
                        srv.clone(),
                    ))),
                    0,
                );
                for i in 0..IPERF_STREAMS {
                    let dst = EthernetCluster::ip_of(0);
                    let client =
                        IperfClient::new(dst, IPERF_PORT, IPERF_BYTES, IperfReport::shared());
                    c.spawn(i + 1, wrap(Box::new(client)), 1);
                }
                Built::Iperf10g { c, srv }
            }
            Cell::DcKv => {
                let p = kv_params(seed);
                let (dc, intra, cross) = match timer {
                    None => kv_dc_workload(&p),
                    Some(_) => kv_dc_wrapped(&p, &wrap),
                };
                Built::Kv { dc, intra, cross }
            }
        }
    }
}

fn kv_params(seed: u64) -> KvDcParams {
    KvDcParams {
        level: 3,
        clients_per_fleet: KV_CLIENTS_PER_FLEET,
        reqs_per_client: KV_REQS_PER_CLIENT,
        slo: KV_SLO,
        seed_base: seed,
        spine_outage: Some((KV_SPINE_DOWN_AT, KV_SPINE_DOWN_FOR)),
    }
}

/// [`kv_dc_workload`] with every spawned process passed through `wrap`.
/// The traced run uses it, and checks that its snapshot digest equals the
/// untraced run's, so the two constructions cannot drift apart silently.
fn kv_dc_wrapped(
    p: &KvDcParams,
    wrap: &dyn Fn(Box<dyn Process>) -> Box<dyn Process>,
) -> (Datacenter, KvReport, KvReport) {
    let mut dc = Datacenter::new(
        &SystemConfig::default(),
        McnConfig::level(p.level),
        &mcn::ClosConfig::default(),
    );
    let cross = ServeReport::shared(p.slo);
    if let Some((at, down_for)) = p.spine_outage {
        let mut plan = OutagePlan::new(0xDCB);
        plan.at(
            &Datacenter::spine_outage_component(0),
            at,
            OutageKind::SwitchDown { down_for },
        );
        dc.set_outage_plan(&plan);
        cross.lock().set_fault_window(at, at + down_for);
    }
    let intra = ServeReport::shared(p.slo);
    let server = KvServerConfig::default();
    dc.spawn_host(
        0,
        0,
        wrap(Box::new(KvServer::new(server.clone(), intra.clone()))),
        0,
    );
    dc.spawn_host(
        3,
        0,
        wrap(Box::new(KvServer::new(server, cross.clone()))),
        0,
    );
    let backend = |rack: usize| {
        let b = Backend {
            addr: McnSystem::nic_ip_in(rack, 0),
            port: 11211,
            domain: format!("rack{rack}"),
            rack,
        };
        ReplicaMap::new(vec![b], 1, 1).expect("placement")
    };
    let (intra_map, cross_map) = (backend(0), backend(3));
    for c in 0..p.clients_per_fleet {
        for (fleet, map, report) in [(0u64, &intra_map, &intra), (1u64, &cross_map, &cross)] {
            let mut cfg = ResilientClientConfig::new(map.clone());
            cfg.seed = p.seed_base + fleet * 16 + c;
            cfg.n_requests = p.reqs_per_client;
            cfg.mean_gap = SimTime::from_us(40);
            cfg.keyspace = 256;
            cfg.set_pct = 20;
            cfg.val_len = 512;
            cfg.retry_budget = 32;
            cfg.retry_earn_tenths = 5;
            let client = ResilientKvClient::new(cfg, report.clone());
            dc.spawn_host(
                0,
                1 + (c as usize % 3),
                wrap(Box::new(client)),
                fleet as usize,
            );
        }
    }
    (dc, intra, cross)
}

/// Accumulates host nanoseconds spent inside wrapped `Process::poll`
/// calls (a statistic only: relaxed ordering publishes nothing else).
#[derive(Debug, Default, Clone)]
pub struct PollTimer(pub Arc<AtomicU64>);

impl PollTimer {
    /// Host seconds accumulated so far.
    pub fn seconds(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

struct TimedProcess {
    inner: Box<dyn Process>,
    ns: Arc<AtomicU64>,
}

impl Process for TimedProcess {
    fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> Poll {
        let t0 = Instant::now();
        let r = self.inner.poll(ctx);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A cell after set-up, ready to simulate.
pub enum Built {
    /// NPB ranks on an MCN server.
    Npb {
        /// The server.
        sys: McnSystem,
        /// Shared rank outcomes.
        report: Arc<Mutex<WorkloadReport>>,
    },
    /// iperf over MCN.
    IperfMcn {
        /// The server.
        sys: McnSystem,
        /// The iperf server's meter.
        srv: Arc<Mutex<IperfReport>>,
    },
    /// iperf over the 10GbE cluster.
    Iperf10g {
        /// The cluster.
        c: EthernetCluster,
        /// The iperf server's meter.
        srv: Arc<Mutex<IperfReport>>,
    },
    /// The datacenter KV scenario.
    Kv {
        /// The datacenter.
        dc: Datacenter,
        /// Intra-rack fleet report.
        intra: KvReport,
        /// Cross-pod fleet report.
        cross: KvReport,
    },
}

/// What a cell's read-out produced.
pub struct Readout {
    /// FNV-1a 64 of the snapshot JSON.
    pub digest: u64,
    /// The sealed snapshot.
    pub snap: MetricsSnapshot,
    /// Simulated outputs for the paper-reference lines.
    pub sim: SimOut,
}

/// Simulated outputs of one cell (informational, never gated).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOut {
    /// Simulated completion time.
    pub elapsed: SimTime,
    /// iperf goodput in Gbit/s.
    pub gbps: f64,
    /// Aggregate DRAM bandwidth in bytes per simulated second.
    pub dram_bw: f64,
    /// KV latency quantiles in µs: intra p50, p99, cross p50, p99.
    pub kv_us: [f64; 4],
}

impl Built {
    /// Runs the engine to completion (or the KV horizon). `threads` is the
    /// parallel engine's worker count for the datacenter.
    pub fn simulate(&mut self, threads: usize) -> Result<(), String> {
        let (done, now) = match self {
            Built::Npb { sys, .. } => (sys.run_until_procs_done(NPB_DEADLINE), sys.now()),
            Built::IperfMcn { sys, .. } => (sys.run_until_procs_done(IPERF_DEADLINE), sys.now()),
            Built::Iperf10g { c, .. } => (c.run_until_procs_done(IPERF_DEADLINE), c.now()),
            Built::Kv { dc, .. } => {
                // The KV servers are daemons with armed timers: the run is
                // bounded by the horizon, and drain is checked at read-out.
                dc.run_parallel(KV_HORIZON, threads);
                (true, dc.now())
            }
        };
        if done {
            Ok(())
        } else {
            Err(format!("stalled at {now}"))
        }
    }

    /// Absorbs the registry, rolls up energy, renders and digests the
    /// snapshot, and checks the scenario's invariants. `span` is called
    /// with a label after each sub-step so a tracer can time it.
    pub fn readout(self, span: &mut dyn FnMut(&'static str)) -> Result<Readout, String> {
        let power = PowerParams::default();
        let mut sink = MetricSink::new();
        let mut sim = SimOut::default();
        let energy: EnergyReport;
        match &self {
            Built::Npb { sys, report } => {
                sink.absorb("sim", sys);
                sink.absorb("workload", &*report.lock());
                span("absorb");
                sim.elapsed = sys.now();
                energy = mcn_energy::mcn_system_energy(&power, sys, sim.elapsed);
                let dram: u64 = sys.host.mem.total_bytes()
                    + (0..sys.dimms())
                        .map(|d| sys.dimm(d).node.mem.total_bytes())
                        .sum::<u64>();
                sim.dram_bw = dram as f64 / sim.elapsed.as_secs_f64().max(1e-12);
            }
            Built::IperfMcn { sys, srv } => {
                sink.absorb("sim", sys);
                sink.absorb("iperf", &*srv.lock());
                span("absorb");
                sim.elapsed = sys.now();
                energy = mcn_energy::mcn_system_energy(&power, sys, sim.elapsed);
                sim.gbps = srv.lock().meter.gbps();
            }
            Built::Iperf10g { c, srv } => {
                sink.absorb("sim", c);
                sink.absorb("iperf", &*srv.lock());
                span("absorb");
                sim.elapsed = c.now();
                energy = mcn_energy::cluster_energy(&power, c, sim.elapsed);
                sim.gbps = srv.lock().meter.gbps();
            }
            Built::Kv { dc, intra, cross } => {
                sink.absorb("sim", dc);
                sink.absorb("serve.intra", &*intra.lock());
                sink.absorb("serve.cross", &*cross.lock());
                span("absorb");
                sim.elapsed = dc.now();
                energy = mcn_energy::datacenter_energy(&power, dc, sim.elapsed);
                let us = |r: &KvReport, p: f64| {
                    r.lock()
                        .latency
                        .percentile(p)
                        .unwrap_or(SimTime::ZERO)
                        .as_ps() as f64
                        / 1e6
                };
                sim.kv_us = [
                    us(intra, 50.0),
                    us(intra, 99.0),
                    us(cross, 50.0),
                    us(cross, 99.0),
                ];
            }
        }
        sink.counter("elapsed_ps", sim.elapsed.as_ps());
        sink.value("energy.total_j", energy.total());
        sink.value("energy.cpu_j", energy.cpu_j);
        sink.value("energy.uncore_j", energy.uncore_j);
        sink.value("energy.dram_j", energy.dram_j);
        sink.value("energy.network_j", energy.network_j);
        span("energy");
        let snap = sink.finish();
        let digest = fnv1a(snap.to_json().as_bytes());
        span("render");
        self.check(&snap)?;
        drop(self);
        span("drop");
        Ok(Readout { digest, snap, sim })
    }

    /// The scenario's output invariants.
    fn check(&self, snap: &MetricsSnapshot) -> Result<(), String> {
        match self {
            Built::Npb { report, .. } => {
                let r = report.lock();
                ensure(r.completion().is_some(), "a rank never finished")?;
                ensure(r.verified, "numerical verification failed")?;
                ensure(snap.get_u64("workload.ranks_failed") == 0, "a rank failed")
            }
            Built::IperfMcn { srv, .. } | Built::Iperf10g { srv, .. } => {
                let got = srv.lock().meter.bytes();
                let want = IPERF_BYTES * IPERF_STREAMS as u64;
                ensure(
                    got == want,
                    &format!("delivered {got} of {want} payload bytes"),
                )
            }
            Built::Kv { intra, cross, .. } => {
                for (name, rep) in [("intra", intra), ("cross", cross)] {
                    let r = rep.lock();
                    ensure(
                        r.completed_clients == KV_CLIENTS_PER_FLEET,
                        &format!("{name} fleet did not drain"),
                    )?;
                    ensure(
                        r.issued == r.latency.count() + r.gave_up,
                        &format!("{name}: issued != answered + gave_up"),
                    )?;
                }
                let paths: u64 = snap
                    .iter()
                    .filter(|(p, _)| p.starts_with("sim.fabric.ecmp.path."))
                    .map(|(_, v)| v.as_f64() as u64)
                    .sum();
                ensure(
                    snap.get_u64("sim.fabric.ecmp.routed") == paths,
                    "ecmp routed != sum of paths",
                )?;
                ensure(
                    snap.get_u64("sim.fabric.switch_downs") == 1,
                    "spine outage did not fire exactly once",
                )
            }
        }
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
