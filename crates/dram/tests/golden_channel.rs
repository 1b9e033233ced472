//! Golden output of one FR-FCFS channel under a seeded mixed workload.
//!
//! The driver mixes sequential and random DRAM reads and writes over both
//! ranks, MCN SRAM reads and writes, pushes at advancing times, and
//! `advance` calls both at `next_event()` and at earlier arbitrary times,
//! over more than three refresh intervals. The FNV-1a digests of every
//! completion, the command trace and the final `ChannelStats` are pinned:
//! any change to the scheduler that is meant to be a pure speed-up must
//! leave all three unchanged.

use std::collections::HashSet;

use mcn_dram::check::{Cmd, TimingChecker};
use mcn_dram::{Channel, ChannelStats, Completion, DramConfig, MemKind, MemRequest, LINE_BYTES};
use mcn_sim::{DetRng, SimTime};

/// Requests pushed over the whole run.
const REQUESTS: u64 = 5_000;

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

fn stats_digest(s: &ChannelStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        s.reads.get(),
        s.writes.get(),
        s.activates.get(),
        s.precharges.get(),
        s.refreshes.get(),
        s.sram_ops.get(),
        s.busy_ps.get(),
        s.traffic.bytes(),
        s.traffic.elapsed().as_ps(),
    ] {
        h.u64(v);
    }
    h.0
}

fn trace_digest(ch: &Channel) -> u64 {
    let mut h = Fnv::new();
    for e in ch.trace() {
        let (op, bank, row) = match e.cmd {
            Cmd::Act { bank, row } => (0, bank, row),
            Cmd::Pre { bank } => (1, bank, 0),
            Cmd::Rd { bank, row } => (2, bank, row),
            Cmd::Wr { bank, row } => (3, bank, row),
            Cmd::Ref => (4, 0, 0),
        };
        for v in [e.at.as_ps(), op, bank as u64, row] {
            h.u64(v);
        }
    }
    h.0
}

/// One request of the mix: one of two sequential streams (far apart, so
/// they conflict in the row buffers), random DRAM, or SRAM.
fn next_request(rng: &mut DetRng, tag: u64, streams: &mut [u64; 2], lines: u64) -> MemRequest {
    let write = rng.chance(0.35);
    match rng.next_below(10) {
        0..=5 => {
            let s = &mut streams[rng.next_below(2) as usize];
            let addr = (*s % lines) * LINE_BYTES;
            *s += 1;
            if write {
                MemRequest::write(addr, tag)
            } else {
                MemRequest::read(addr, tag)
            }
        }
        6..=8 => {
            let addr = rng.next_below(lines) * LINE_BYTES;
            if write {
                MemRequest::write(addr, tag)
            } else {
                MemRequest::read(addr, tag)
            }
        }
        _ => {
            let addr = 0x4000_0000 + rng.next_below(64) * LINE_BYTES;
            if write {
                MemRequest::sram_write(addr, tag)
            } else {
                MemRequest::sram_read(addr, tag)
            }
        }
    }
}

#[test]
fn mixed_channel_run_matches_golden_digests() {
    let cfg = DramConfig::ddr4_3200();
    assert_eq!(cfg.ranks, 2, "the mix spans both ranks of the preset");
    let mut ch = Channel::new(&cfg, 0);
    ch.enable_trace();
    let mut rng = DetRng::new(0x0601_DE11);
    let lines = cfg.channel_bytes() / LINE_BYTES;
    let refi = cfg.cycles(cfg.t_refi);

    let mut completions = Fnv::new();
    let mut seen = HashSet::new();
    let mut record = |done: Vec<Completion>| {
        for c in done {
            assert!(seen.insert(c.tag), "tag {} completed twice", c.tag);
            for v in [c.tag, c.at.as_ps(), u64::from(c.kind == MemKind::Write)] {
                completions.u64(v);
            }
        }
    };

    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    let mut streams = [0, lines / 2 + 7];
    while tag < REQUESTS {
        // A burst of pushes at the current time.
        for _ in 0..rng.range(1, 24) {
            if tag == REQUESTS {
                break;
            }
            let req = next_request(&mut rng, tag, &mut streams, lines);
            if !ch.can_accept(req.kind) {
                break;
            }
            ch.push(req, now);
            tag += 1;
        }
        // Advance: to the next event, to an earlier arbitrary time, or
        // across an idle gap of up to a fifth of a refresh interval.
        let next = ch.next_event().expect("work pending");
        now = match rng.next_below(16) {
            0..=7 => next,
            8..=14 => {
                let gap = next.as_ps().saturating_sub(now.as_ps());
                now + SimTime::from_ps(rng.next_below(gap.max(1)))
            }
            _ => now.max(next) + SimTime::from_ps(rng.next_below(refi.as_ps() / 5)),
        };
        record(ch.advance(now));
    }
    while ch.outstanding() > 0 {
        now = ch.next_event().expect("work pending");
        record(ch.advance(now));
    }
    assert_eq!(seen.len() as u64, REQUESTS);
    let stats = ch.stats();
    assert!(
        stats.refreshes.get() >= 3 && now > refi * 3,
        "run must cross at least 3 tREFI: {} refreshes by {now}",
        stats.refreshes.get()
    );
    assert!(stats.sram_ops.get() > 0 && stats.precharges.get() > 0);
    assert!(
        stats.row_hits() > 0,
        "the mix must exercise row hits and conflicts"
    );
    let violations = TimingChecker::new(cfg.clone()).verify(ch.trace());
    assert!(
        violations.is_empty(),
        "violations: {:?}",
        &violations[..violations.len().min(3)]
    );

    let got = (completions.0, trace_digest(&ch), stats_digest(stats));
    assert_eq!(
        got,
        (
            0x3e5c_00de_7474_6ebb,
            0x7ee9_034e_5bbf_aaf0,
            0x031b_6920_0af0_c29f
        ),
        "golden digests (completions, trace, stats) changed: got {got:#018x?}"
    );
}
