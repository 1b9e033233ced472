//! Deterministic work counters read from a cell's snapshot, summed over
//! every component that reports them.

use std::ops::AddAssign;

use mcn_sim::{MetricValue, MetricsSnapshot};

/// Per-layer work counts of one cell (or a sum of cells).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub advances: u64,
    pub component_polls: u64,
    pub rounds: u64,
    pub windows: u64,
    pub barriers: u64,
    pub batch_jobs: u64,
    pub messages: u64,
    pub pool_reused: u64,
    pub pool_allocated: u64,
    /// DRAM read + write bursts.
    pub lines: u64,
    pub sram_ops: u64,
    pub activates: u64,
    pub busy_ps: u64,
    /// Channel count × simulated elapsed time.
    pub channel_ps: u64,
    pub frames: u64,
    pub data_segs: u64,
    pub acks: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub bytes_sent: u64,
    pub bytes_delivered: u64,
    pub tx_frames: u64,
    pub rx_frames: u64,
    pub polls: u64,
    pub ring_full_drops: u64,
    pub routed: u64,
    pub forwarded: u64,
    pub dead_drops: u64,
    pub issued: u64,
    pub answered: u64,
    pub gave_up: u64,
    pub retries: u64,
}

impl Counts {
    /// Sums the counters of `snap` by path suffix.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Counts {
        let mut c = Counts::default();
        let elapsed = snap.get_u64("elapsed_ps");
        for (path, value) in snap.iter() {
            let MetricValue::U64(v) = *value else {
                continue;
            };
            let sim = path.starts_with("sim.");
            let ends = |s: &str| path.ends_with(s);
            let field = match () {
                _ if sim && ends(".engine.advances") => &mut c.advances,
                _ if sim && ends(".engine.component_polls") => &mut c.component_polls,
                _ if sim && ends(".engine.rounds") => &mut c.rounds,
                _ if sim && ends("sched.windows") => &mut c.windows,
                _ if sim && path.contains("sched.domain.") && ends(".barriers") => &mut c.barriers,
                _ if sim && ends("sched.batch.jobs") => &mut c.batch_jobs,
                _ if sim && ends("sched.messages") => &mut c.messages,
                _ if sim && ends("sched.pool.reused") => &mut c.pool_reused,
                _ if sim && ends("sched.pool.allocated") => &mut c.pool_allocated,
                _ if sim && path.contains(".mem.ch") && (ends(".reads") || ends(".writes")) => {
                    &mut c.lines
                }
                _ if sim && path.contains(".mem.ch") && ends(".sram_ops") => &mut c.sram_ops,
                _ if sim && path.contains(".mem.ch") && ends(".activates") => &mut c.activates,
                _ if sim && path.contains(".mem.ch") && ends(".busy_ps") => {
                    c.channel_ps += elapsed;
                    &mut c.busy_ps
                }
                _ if sim && (ends(".stack.frames_in") || ends(".stack.frames_out")) => {
                    &mut c.frames
                }
                _ if sim && ends(".stack.tcp.data_segs_out") => &mut c.data_segs,
                _ if sim && ends(".stack.tcp.acks_out") => &mut c.acks,
                _ if sim && ends(".stack.tcp.retransmits") => &mut c.retransmits,
                _ if sim && ends(".stack.tcp.timeouts") => &mut c.timeouts,
                _ if sim && ends(".stack.tcp.bytes_sent") => &mut c.bytes_sent,
                _ if sim && ends(".stack.tcp.bytes_delivered") => &mut c.bytes_delivered,
                _ if sim && ends(".driver.tx_frames") => &mut c.tx_frames,
                _ if sim && ends(".driver.rx_frames") => &mut c.rx_frames,
                _ if sim && ends(".driver.polls") => &mut c.polls,
                _ if sim && ends(".driver.ring_full_drops") => &mut c.ring_full_drops,
                _ if path == "sim.fabric.ecmp.routed" => &mut c.routed,
                _ if path.starts_with("sim.fabric.") && ends(".forwarded") => &mut c.forwarded,
                _ if path.starts_with("sim.fabric.") && ends(".dead_drops") => &mut c.dead_drops,
                _ if path.starts_with("serve.") && ends(".issued") => &mut c.issued,
                _ if path.starts_with("serve.") && ends(".latency.count") => &mut c.answered,
                _ if path.starts_with("serve.") && ends(".gave_up") => &mut c.gave_up,
                _ if path.starts_with("serve.") && ends(".retry_budget_spent") => &mut c.retries,
                _ => continue,
            };
            *field += v;
        }
        c
    }

    /// Mean TCP payload bytes per data segment.
    pub fn mean_payload(&self) -> usize {
        (self.bytes_sent / self.data_segs.max(1)) as usize
    }

    /// Mean Ethernet frame bytes over data segments and pure ACKs
    /// (14 + 20 + 20 bytes of headers each).
    pub fn mean_frame(&self) -> usize {
        (self.bytes_sent / (self.data_segs + self.acks).max(1)) as usize + 54
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        add!(
            advances,
            component_polls,
            rounds,
            windows,
            barriers,
            batch_jobs,
            messages,
            pool_reused,
            pool_allocated,
            lines,
            sram_ops,
            activates,
            busy_ps,
            channel_ps,
            frames,
            data_segs,
            acks,
            retransmits,
            timeouts,
            bytes_sent,
            bytes_delivered,
            tx_frames,
            rx_frames,
            polls,
            ring_full_drops,
            routed,
            forwarded,
            dead_drops,
            issued,
            answered,
            gave_up,
            retries
        );
    }
}
