//! Fig. 8(b): host↔MCN ping RTT across payload sizes, normalized to the
//! RTT of a 16-byte ping between two 10GbE hosts.
use mcn_sweep::scenarios::{ping_10gbe, ping_mcn, McnMode};

fn main() {
    let base = ping_10gbe(16, 20);
    println!(
        "Fig 8(b): host-mcn ping RTT normalized to 10GbE 16B RTT ({base})"
    );
    println!("{:<8} {:>10} {:>10} {:>10} {:>10}", "payload", "10GbE", "mcn0", "mcn1", "mcn5");
    for payload in [16usize, 256, 1024, 4096, 8192] {
        let e = ping_10gbe(payload, 20);
        let r0 = ping_mcn(0, McnMode::HostMcn, payload, 20);
        let r1 = ping_mcn(1, McnMode::HostMcn, payload, 20);
        let r5 = ping_mcn(5, McnMode::HostMcn, payload, 20);
        let n = |t: mcn_sim::SimTime| t.as_ns_f64() / base.as_ns_f64();
        println!(
            "{payload:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            n(e), n(r0), n(r1), n(r5)
        );
    }
    println!("\npaper: mcn0 reduces host-mcn RTT by 62-75% across packet sizes");
}
