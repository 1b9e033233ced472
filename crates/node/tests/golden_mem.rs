//! Golden output of the memory-job layer on two channels.
//!
//! Concurrent `Stream` (sequential and random), `Copy` (DRAM and SRAM
//! destinations) and `Single` jobs start at staggered times with varied
//! parallelism windows; the driver advances both at `next_event()` and at
//! earlier arbitrary times. The FNV-1a digest of every `(waiter, job)`
//! completion with its time, and of both channels' final counters, is
//! pinned: a pure speed-up of the job layer or the channel scheduler must
//! leave it unchanged.

use mcn_dram::{DramConfig, MemKind, LINE_BYTES};
use mcn_node::mem::Pattern;
use mcn_node::{Access, MemorySystem, Transfer};
use mcn_sim::{DetRng, SimTime};

/// Jobs started over the whole run.
const JOBS: u64 = 160;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn random_job(rng: &mut DetRng) -> Transfer {
    let bytes = rng.range(1, 48) * 512;
    let region = rng.next_below(1 << 12) << 16;
    match rng.next_below(6) {
        0 => Transfer::Stream {
            start: region,
            bytes,
            read_frac: 0.7,
            access: Access::Seq,
        },
        1 => Transfer::Stream {
            start: region,
            bytes,
            read_frac: 0.5,
            access: Access::Rand { span: 1 << 26 },
        },
        2 => Transfer::Copy {
            src: Pattern::dram(region),
            dst: Pattern::dram(region ^ (1 << 27)),
            bytes,
        },
        // An SRAM window on channel 1: odd lines, stride of two lines.
        3 => Transfer::Copy {
            src: Pattern::dram(region),
            dst: Pattern::sram(0x4000_0000 + LINE_BYTES, 2 * LINE_BYTES),
            bytes,
        },
        4 => Transfer::Single {
            pat: Pattern::dram(region),
            kind: if rng.chance(0.5) {
                MemKind::Read
            } else {
                MemKind::Write
            },
            bytes,
        },
        _ => Transfer::Single {
            pat: Pattern::sram(0x4000_0000, LINE_BYTES),
            kind: MemKind::Read,
            bytes: bytes / 8,
        },
    }
}

#[test]
fn concurrent_jobs_match_golden_digest() {
    let mut ms = MemorySystem::new(&DramConfig::ddr4_3200(), 2);
    let mut rng = DetRng::new(0x0601_D3E3);
    let mut h = Fnv::new();
    let mut now = SimTime::ZERO;
    let mut started = 0u64;
    let mut finished = 0u64;
    let start = |ms: &mut MemorySystem, rng: &mut DetRng, started: &mut u64, now: SimTime| {
        let spec = random_job(rng);
        let mlp = rng.range(1, 17) as u32;
        ms.start_with_mlp(spec, 1000 + *started, mlp, now);
        *started += 1;
    };
    for _ in 0..6 {
        start(&mut ms, &mut rng, &mut started, now);
    }
    // A channel that has seen traffic keeps waking for refresh, so the
    // run ends when no job or request is left, not at `None`.
    while ms.busy() {
        let next = ms.next_event().expect("busy memory system has an event");
        now = if rng.chance(0.6) {
            next
        } else {
            let gap = next.as_ps().saturating_sub(now.as_ps());
            now + SimTime::from_ps(rng.next_below(gap.max(1)))
        };
        for (waiter, job) in ms.advance(now) {
            h.u64(waiter);
            h.u64(job.0);
            h.u64(now.as_ps());
            finished += 1;
            // Each finished job starts up to two more, so the mix stays
            // concurrent until the budget runs out.
            for _ in 0..rng.range(1, 3) {
                if started < JOBS {
                    start(&mut ms, &mut rng, &mut started, now);
                }
            }
        }
        // Occasionally a job arrives between completions.
        if started < JOBS && rng.chance(0.05) {
            start(&mut ms, &mut rng, &mut started, now);
        }
    }
    assert_eq!(finished, JOBS);
    for ch in ms.channels() {
        let s = ch.stats();
        assert!(s.reads.get() > 0 && s.writes.get() > 0 && s.refreshes.get() > 0);
        for v in [
            s.reads.get(),
            s.writes.get(),
            s.activates.get(),
            s.precharges.get(),
            s.refreshes.get(),
            s.sram_ops.get(),
            s.busy_ps.get(),
            s.traffic.bytes(),
        ] {
            h.u64(v);
        }
    }
    assert_eq!(
        h.0, 0x58a7_a2bd_08d7_e115,
        "golden digest changed: got {:#018x} at {now}",
        h.0
    );
}
