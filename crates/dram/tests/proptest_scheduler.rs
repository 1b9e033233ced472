//! Property tests: the FR-FCFS scheduler must produce JEDEC-clean command
//! traces under *randomized* timing configurations and workloads, checked
//! by the independent `TimingChecker`. A scheduler bug that only surfaces
//! with unusual parameter ratios (e.g. tiny tFAW, huge tWTR) is exactly
//! what this hunts. Rank counts of 1, 2 and 4 give the scheduler 16 to 64
//! banks; staggered arrivals, SRAM traffic and `advance` calls short of
//! `next_event()` exercise every path by which scheduler state can change
//! between two queries.

use mcn_dram::check::TimingChecker;
use std::collections::HashSet;

use mcn_dram::{Channel, DramConfig, MemKind, MemRequest};
use mcn_sim::{DetRng, SimTime};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DramConfig> {
    (
        2u64..=30,   // t_rcd
        2u64..=30,   // t_rp
        4u64..=30,   // t_cl
        2u64..=20,   // t_cwl
        10u64..=60,  // t_ras
        2u64..=8,    // t_rrd_s
        0u64..=8,    // t_rrd_l extra over rrd_s
        2u64..=6,    // t_ccd_s
        0u64..=6,    // t_ccd_l extra
        2u64..=30,   // t_wr
        (1u64..=6, 0u64..=10, 2u64..=16, 0u32..=2), // t_wtr_s, t_wtr_l extra, t_rtp, log2(ranks)
    )
        .prop_map(
            |(t_rcd, t_rp, t_cl, t_cwl, t_ras, rrd_s, rrd_l_x, ccd_s, ccd_l_x, t_wr, (wtr_s, wtr_l_x, t_rtp, log_ranks))| {
                let mut c = DramConfig::ddr4_3200();
                c.ranks = 1 << log_ranks;
                c.t_rcd = t_rcd;
                c.t_rp = t_rp;
                c.t_cl = t_cl;
                c.t_cwl = t_cwl;
                c.t_ras = t_ras;
                c.t_rc = t_ras + t_rp;
                c.t_rrd_s = rrd_s;
                c.t_rrd_l = rrd_s + rrd_l_x;
                c.t_faw = 4 * rrd_s + 2;
                c.t_ccd_s = ccd_s;
                c.t_ccd_l = ccd_s + ccd_l_x;
                c.t_wr = t_wr;
                c.t_wtr_s = wtr_s;
                c.t_wtr_l = wtr_s + wtr_l_x;
                c.t_rtp = t_rtp;
                c.validate().expect("constructed to be valid");
                c
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_configs_yield_clean_traces(
        cfg in arb_config(),
        seed in 0u64..1_000_000,
        write_frac in 0.0f64..=1.0,
        sram_frac in 0.0f64..=0.3,
        random_addrs in any::<bool>(),
    ) {
        let mut ch = Channel::new(&cfg, 0);
        ch.enable_trace();
        let mut rng = DetRng::new(seed);
        let span = cfg.channel_bytes() / 64;
        let n = 400u64;
        let mut issued = 0;
        let mut tags = HashSet::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        while (tags.len() as u64) < n {
            // A burst of up to 16 arrivals at the current time.
            for _ in 0..rng.range(0, 17) {
                if issued == n {
                    break;
                }
                let w = rng.chance(write_frac);
                let kind = if w { MemKind::Write } else { MemKind::Read };
                if !ch.can_accept(kind) {
                    break;
                }
                let req = if rng.chance(sram_frac) {
                    let addr = 0x4000_0000 + rng.next_below(64) * 64;
                    if w { MemRequest::sram_write(addr, issued) } else { MemRequest::sram_read(addr, issued) }
                } else {
                    let addr = if random_addrs {
                        rng.next_below(span) * 64
                    } else {
                        seq += 64;
                        seq
                    };
                    if w { MemRequest::write(addr, issued) } else { MemRequest::read(addr, issued) }
                };
                ch.push(req, now);
                issued += 1;
            }
            // Advance to the next event, or to a time short of it.
            let Some(next) = ch.next_event() else { continue };
            prop_assert!(next >= now, "next_event {} before now {}", next, now);
            now = if rng.chance(0.5) {
                next
            } else {
                now + SimTime::from_ps(rng.next_below((next - now).as_ps().max(1)))
            };
            for c in ch.advance(now) {
                prop_assert!(c.at <= now, "completion at {} delivered at {}", c.at, now);
                prop_assert!(tags.insert(c.tag), "tag {} completed twice", c.tag);
            }
        }
        prop_assert_eq!(ch.outstanding(), 0);
        let violations = TimingChecker::new(cfg).verify(ch.trace());
        prop_assert!(violations.is_empty(), "violations: {:?}", &violations[..violations.len().min(3)]);
    }

    #[test]
    fn completions_preserve_all_tags(
        seed in 0u64..1_000_000,
    ) {
        // Every pushed request completes exactly once, regardless of the
        // scheduler's reordering.
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        let mut rng = DetRng::new(seed);
        let n = 300u64;
        let mut issued = 0;
        let mut tags = HashSet::new();
        loop {
            while issued < n {
                let w = rng.chance(0.3);
                let kind = if w { MemKind::Write } else { MemKind::Read };
                if !ch.can_accept(kind) { break; }
                let addr = rng.next_below(1 << 20) * 64;
                let req = if w { MemRequest::write(addr, issued) } else { MemRequest::read(addr, issued) };
                ch.push(req, SimTime::ZERO);
                issued += 1;
            }
            let Some(t) = ch.next_event() else { break };
            for c in ch.advance(t) {
                prop_assert!(tags.insert(c.tag), "tag {} completed twice", c.tag);
            }
            if issued == n && ch.outstanding() == 0 { break; }
        }
        prop_assert_eq!(tags.len() as u64, n);
    }
}
