//! Golden output of the windowed coordinator on every topology that
//! drives it: the 10GbE cluster, an MCN rack and the Clos datacenter.
//!
//! Each scenario mutates its topology from outside the scheduler between
//! runs (a UDP datagram or a new process injected through `node_mut` /
//! `server_mut`, an uplink impaired while frames are in flight, a switch
//! partition and heal, a rack reboot scheduled mid-run) and pins the
//! FNV-1a digest of the full registry snapshot plus the final clock. A
//! speed-up of the coordinator must leave every digest unchanged; a
//! digest change means the simulation changed.

use std::net::Ipv4Addr;

use bytes::Bytes;
use mcn::{EthernetCluster, McnSystem};
use mcn_mpi::apps::{PingReport, Pinger};
use mcn_sim::{ComponentExt, MetricsSnapshot, OutageKind, OutagePlan, SimTime};
use mcn_sweep::scenarios::{
    cluster_iperf_workload, kv_dc_workload, rack_iperf_workload, KvDcParams,
};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a topology's whole registry and its clock.
fn digest(root: &dyn mcn_sim::Instrumented, now: SimTime) -> u64 {
    let json = MetricsSnapshot::collect(root).to_json();
    fnv(format!("{json}|{}", now.as_ps()).as_bytes())
}

/// Sends one datagram from `stack` to `dst:port` from a fresh socket.
fn udp_once(stack: &mut mcn_net::NetStack, dst: Ipv4Addr, port: u16, now: SimTime) {
    let sock = stack.udp_bind(0).expect("ephemeral port");
    let payload: Vec<u8> = (0..600u32).map(|i| (i * 7) as u8).collect();
    stack
        .udp_send(sock, dst, port, Bytes::from(payload), now)
        .expect("routable");
}

/// The 10GbE iperf cell (4 clients into node 0) driven through
/// `step()` and `run_until_procs_done`, with a datagram injected
/// through `node_mut` between steps.
#[test]
fn cluster_iperf_with_injected_udp() {
    let (mut c, srv) = cluster_iperf_workload(4, 96 << 10, SimTime::ZERO);
    let rx = c.node_mut(0).node.stack.udp_bind(7001).expect("free port");
    for _ in 0..400 {
        assert!(c.step());
    }
    let now = c.now();
    udp_once(&mut c.node_mut(2).node.stack, EthernetCluster::ip_of(0), 7001, now);
    for _ in 0..50 {
        assert!(c.step());
    }
    assert!(c.run_until_procs_done(SimTime::from_secs(5)), "iperf stalled at {}", c.now());
    assert!(c.node_mut(0).node.stack.udp_recv(rx).is_some(), "datagram lost");
    assert!(srv.lock().meter.gbps() > 1.0);
    assert_eq!(digest(&c, c.now()), 1_280_439_420_646_871_123, "cluster digest");
}

/// An uplink impaired while it carries frames: the frames in flight die
/// with the old link and TCP recovers onto the new one.
#[test]
fn cluster_uplink_impaired_mid_flight() {
    let (mut c, _srv) = cluster_iperf_workload(4, 64 << 10, SimTime::ZERO);
    for _ in 0..300 {
        assert!(c.step());
    }
    while c.uplink(3).next_arrival().is_none() {
        assert!(c.step());
    }
    c.impair_uplink(3, 0.02, 0.0, 0x5EED);
    assert!(c.run_until_procs_done(SimTime::from_secs(5)), "iperf stalled at {}", c.now());
    assert_eq!(digest(&c, c.now()), 16_698_310_292_560_957_528, "impaired cluster digest");
}

/// An MCN rack driven through `Component::advance` (`step`/`run_until`),
/// partitioned and healed mid-run, with a datagram and a new process
/// injected through `server_mut`.
#[test]
fn rack_component_drive_with_partition_and_injection() {
    let (mut rack, _reports) = rack_iperf_workload(3, 48 << 10, None);
    let rx = rack.server_mut(1).host.stack.udp_bind(7002).expect("free port");
    for _ in 0..300 {
        assert!(rack.step());
    }
    rack.partition_now(vec![0, 1]);
    let t = rack.now() + SimTime::from_us(300);
    rack.run_until(t);
    rack.heal_now();
    let now = rack.now();
    let dst = McnSystem::nic_ip(1);
    udp_once(&mut rack.server_mut(0).host.stack, dst, 7002, now);
    let ping = PingReport::shared();
    let target = rack.server(0).dimm_ip(1);
    rack.spawn_host(1, Box::new(Pinger::new(target, 64, 4, 9, ping.clone())), 2);
    assert!(rack.run_until_procs_done(SimTime::from_secs(5)), "rack stalled at {}", rack.now());
    assert!(rack.server_mut(1).host.stack.udp_recv(rx).is_some(), "datagram lost");
    assert_eq!(ping.lock().replies, 4, "pings lost");
    assert!(rack.stats.partition_drops.get() > 0, "the partition dropped nothing");
    assert_eq!(digest(&rack, rack.now()), 7_805_593_397_883_797_977, "rack digest");
}

/// The datacenter KV workload (spine 0 lost mid-run) at `threads`
/// outer workers, split in two runs with a rack reboot scheduled and a
/// cross-rack pinger spawned in between.
fn kv_dc_digest(threads: usize) -> u64 {
    let (mut dc, intra, cross) = kv_dc_workload(&KvDcParams::default_bench());
    dc.run_parallel_until(SimTime::from_ms(3), threads);
    let mut plan = OutagePlan::new(0x60D);
    plan.at(
        &mcn::fabric::Datacenter::rack_outage_component(1),
        SimTime::from_ms(4),
        OutageKind::NodeReboot { down_for: SimTime::from_ms(1) },
    );
    dc.set_outage_plan(&plan);
    let ping = PingReport::shared();
    let target = McnSystem::nic_ip_in(0, 1);
    dc.spawn_host(2, 1, Box::new(Pinger::new(target, 64, 3, 11, ping.clone())), 1);
    dc.run_parallel(SimTime::from_ms(80), threads);
    assert_eq!(ping.lock().replies, 3, "pings lost");
    assert_eq!(dc.rack(1).stats.node_reboots.get(), 4, "rack 1 did not reboot");
    let mut h = digest(&dc, dc.now());
    for r in [&intra, &cross] {
        let r = r.lock();
        assert!(r.ok > 0, "a fleet got no answers");
        h ^= digest(&*r, dc.now()).rotate_left(1);
    }
    h
}

/// Pinned digest of [`kv_dc_digest`]; serial and parallel runs agree.
const KV_DC_DIGEST: u64 = 10_261_720_523_175_790_920;

#[test]
fn kv_dc_serial() {
    assert_eq!(kv_dc_digest(1), KV_DC_DIGEST, "dc digest at 1 thread");
}

#[test]
fn kv_dc_two_threads() {
    assert_eq!(kv_dc_digest(2), KV_DC_DIGEST, "dc digest at 2 threads");
}
