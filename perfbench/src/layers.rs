//! Layer drivers: each times one layer's public API on the input shape a
//! cell of the workload actually produces, so that a host-time unit cost
//! times the cell's deterministic work count estimates that layer's share
//! of the run. The shapes come from the cell's configuration and from the
//! counters in its own snapshot (mean frame size, segment counts), not
//! from the micro-benchmark inputs.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use bytes::Bytes;

use mcn::sram_mod::{Dir, SramBuffer};
use mcn::SystemConfig;
use mcn_dram::{Channel, DramConfig, MemKind, MemRequest, LINE_BYTES};
use mcn_net::{EthernetFrame, IpProto, Ipv4Packet, MacAddr, TcpFlags, TcpSegment};
use mcn_node::mem::Pattern;
use mcn_node::{Access, MemorySystem, Transfer};
use mcn_sim::{DetRng, EventQueue, SimTime};

/// Memory traffic of one node type in a cell: `jobs` concurrent jobs of
/// `bytes` each, with `mlp` lines in flight per job, on `channels`
/// channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemShape {
    /// Concurrent jobs (ranks or ports on the node).
    pub jobs: usize,
    /// Memory channels of the node.
    pub channels: u32,
    /// Lines in flight per job.
    pub mlp: u32,
    /// Bytes per job.
    pub bytes: u64,
    /// What each job does.
    pub access: MemAccess,
}

/// The job type of a [`MemShape`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemAccess {
    /// Compute-phase streams: random lines within 64 MiB or sequential
    /// lines, a `read_frac` share of them reads.
    Stream {
        /// Fraction of reads.
        read_frac: f64,
        /// Random rather than sequential lines.
        random: bool,
    },
    /// Frame copies from an SRAM window into DRAM (the host driver's
    /// `memcpy_from_mcn`).
    SramCopy,
    /// NIC DMA: frame-sized sequential DRAM writes.
    NicDma,
}

/// Host nanoseconds per unit of work, as measured by a driver.
pub type NsPerUnit = f64;

/// Calls `batch` (which returns the units of work it did) once to warm
/// up, then repeatedly for five samples of at least `min_ns` each, and
/// returns the median sample's nanoseconds per unit.
fn ns_per_unit(min_ns: u128, mut batch: impl FnMut() -> u64) -> NsPerUnit {
    batch();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut units = 0u64;
            while t0.elapsed().as_nanos() < min_ns {
                units += batch();
            }
            t0.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

const BATCH_NS: u128 = 20_000_000;
/// Channel operations one memory batch completes.
const MEM_BATCH_OPS: u64 = 256;

/// The DRAM request stream a shape puts on one of its channels.
struct ReqGen {
    shape: MemShape,
    rng: DetRng,
    i: u64,
}

impl ReqGen {
    fn new(shape: MemShape) -> Self {
        ReqGen {
            shape,
            rng: DetRng::new(0x5EED),
            i: 0,
        }
    }

    fn next(&mut self) -> MemRequest {
        let i = self.i;
        self.i += 1;
        let MemShape {
            jobs,
            bytes,
            access,
            ..
        } = self.shape;
        let lines = (bytes / LINE_BYTES).max(1);
        match access {
            MemAccess::Stream { read_frac, random } => {
                // Round-robin over the jobs' disjoint regions.
                let job = i % jobs as u64;
                let line = if random {
                    self.rng.next_below((64 << 20) / LINE_BYTES)
                } else {
                    (i / jobs as u64) % lines
                };
                let addr = (job << 27) + line * LINE_BYTES;
                if self.rng.next_f64() < read_frac {
                    MemRequest::read(addr, i)
                } else {
                    MemRequest::write(addr, i)
                }
            }
            // Each line is read from the window, then written to DRAM.
            MemAccess::SramCopy if i.is_multiple_of(2) => {
                MemRequest::sram_read((i / 2 % lines) * LINE_BYTES, i)
            }
            MemAccess::SramCopy => MemRequest::write((1 << 30) + (i / 2) * LINE_BYTES, i),
            MemAccess::NicDma => MemRequest::write((2 << 30) + i * LINE_BYTES, i),
        }
    }

    /// Requests in flight on one channel: the node's jobs × `mlp`, spread
    /// over its channels.
    fn window(&self) -> usize {
        let s = self.shape;
        (s.jobs * s.mlp as usize / s.channels as usize).max(1)
    }
}

/// `mcn_dram::Channel` push/next_event/advance on one channel's share of
/// the shape's request stream, in steady state: ns per completed
/// operation (a line read or written).
pub fn dram_channel(cfg: &DramConfig, shape: MemShape) -> NsPerUnit {
    let mut ch = Channel::new(cfg, 0);
    let mut gen = ReqGen::new(shape);
    let window = gen.window();
    let mut now = SimTime::ZERO;
    ns_per_unit(BATCH_NS, || {
        let mut done = 0u64;
        while done < MEM_BATCH_OPS {
            while ch.outstanding() < window {
                let req = gen.next();
                if !ch.can_accept(req.kind) {
                    gen.i -= 1;
                    break;
                }
                ch.push(req, now);
            }
            now = ch.next_event().expect("outstanding requests");
            done += black_box(ch.advance(now)).len() as u64;
        }
        done
    })
}

/// `mcn_node::MemorySystem` start/next_event/advance with the shape's jobs
/// on its node, each finished job replaced by the next, in steady state:
/// ns per channel operation (a line read or written), channel work
/// included.
pub fn memory_system(cfg: &DramConfig, shape: MemShape) -> NsPerUnit {
    let MemShape {
        jobs,
        channels,
        mlp,
        bytes,
        access,
    } = shape;
    let transfer = |j: u64| match access {
        MemAccess::Stream { read_frac, random } => {
            let access = if random {
                Access::Rand { span: 64 << 20 }
            } else {
                Access::Seq
            };
            Transfer::Stream {
                start: (8 << 30) + ((j % jobs as u64) << 27),
                bytes,
                read_frac,
                access,
            }
        }
        MemAccess::SramCopy => Transfer::Copy {
            src: Pattern::sram((j % 4) << 20, LINE_BYTES * u64::from(channels)),
            dst: Pattern::dram((1 << 30) + ((j % 64) << 16)),
            bytes,
        },
        MemAccess::NicDma => Transfer::Single {
            pat: Pattern::dram((2 << 30) + ((j % 64) << 14)),
            kind: MemKind::Write,
            bytes,
        },
    };
    let mut mem = MemorySystem::new(cfg, channels);
    let mut now = SimTime::ZERO;
    for j in 0..jobs as u64 {
        mem.start_with_mlp(transfer(j), j, mlp, now);
    }
    let mut next_job = jobs as u64;
    ns_per_unit(BATCH_NS, || {
        let start = mem.total_bytes();
        while mem.total_bytes() - start < MEM_BATCH_OPS * LINE_BYTES {
            now = mem.next_event().expect("running jobs");
            for (w, _) in mem.advance(now) {
                mem.start_with_mlp(transfer(next_job), w, mlp, now);
                next_job += 1;
            }
        }
        (mem.total_bytes() - start) / LINE_BYTES
    })
}

/// `mcn_sim::EventQueue` schedule + pop at a steady depth of `depth`
/// pending events spaced by the poll interval: ns per event.
pub fn event_queue(depth: usize) -> NsPerUnit {
    const EVENTS: u64 = 8192;
    ns_per_unit(BATCH_NS, || {
        let mut q = EventQueue::new();
        let step = SimTime::from_us(1);
        for i in 0..depth as u64 {
            q.schedule(SimTime::from_ns(i * 100), i);
        }
        for i in 0..EVENTS {
            let (t, v) = q.pop().expect("steady depth");
            q.schedule(t + step + SimTime::from_ns(i % 7), black_box(v));
        }
        EVENTS
    })
}

fn tcp_frame(payload: usize, checksum: bool) -> (Vec<u8>, EthernetFrame) {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let seg = TcpSegment {
        src_port: 5001,
        dst_port: 40000,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 1000,
        mss: None,
        wscale: None,
        payload: Bytes::from(vec![7u8; payload]),
        checksum_ok: true,
    };
    let ip = Ipv4Packet::new(
        src,
        dst,
        IpProto::Tcp,
        1,
        Bytes::from(seg.encode(src, dst, checksum)),
    );
    let frame = EthernetFrame::ipv4(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Bytes::from(ip.encode()),
    );
    (frame.encode(), frame)
}

/// The `mcn_net` TCP, IPv4 and Ethernet codecs (with the checksum when
/// the level computes it) on one frame of `payload` bytes: encode at the
/// sender plus decode at the receiver, ns per frame.
pub fn net_codecs(payload: usize, checksum: bool) -> NsPerUnit {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let (wire, frame) = tcp_frame(payload, checksum);
    let seg = TcpSegment::decode(
        &Ipv4Packet::decode(&EthernetFrame::decode(&wire).expect("frame").payload)
            .expect("ip")
            .payload,
        src,
        dst,
        checksum,
    )
    .expect("segment");
    ns_per_unit(BATCH_NS, || {
        for _ in 0..64 {
            let tcp = seg.encode(src, dst, checksum);
            let ip = Ipv4Packet::new(src, dst, IpProto::Tcp, 1, Bytes::from(tcp));
            black_box(EthernetFrame::ipv4(frame.dst, frame.src, Bytes::from(ip.encode())).encode());
            let f = EthernetFrame::decode(black_box(&wire)).expect("frame");
            let p = Ipv4Packet::decode(&f.payload).expect("ip");
            black_box(TcpSegment::decode(&p.payload, p.src, p.dst, checksum).expect("segment"));
        }
        64
    })
}

/// `SramBuffer` push + pop of one `frame`-byte message through a ring of
/// the configured size, in steady state: ns per frame.
pub fn sram_ring(frame: usize) -> NsPerUnit {
    let mut s = SramBuffer::new(SystemConfig::default().sram_ring_bytes);
    let msg = vec![0x42u8; frame];
    ns_per_unit(BATCH_NS, || {
        for _ in 0..64 {
            s.push(Dir::Tx, black_box(&msg))
                .expect("ring has room for one frame");
            black_box(s.pop(Dir::Tx).expect("frame"));
        }
        64
    })
}
