//! Fig. 8(c): MCN↔MCN ping RTT (routed through the host forwarding
//! engine), normalized to the 16-byte 10GbE RTT.
use mcn_sweep::scenarios::{ping_10gbe, ping_mcn, McnMode};

fn main() {
    let base = ping_10gbe(16, 20);
    println!(
        "Fig 8(c): mcn-mcn ping RTT normalized to 10GbE 16B RTT ({base})"
    );
    println!("{:<8} {:>10} {:>10} {:>10} {:>10}", "payload", "10GbE", "mcn0", "mcn1", "mcn5");
    for payload in [16usize, 256, 1024, 4096, 8192] {
        let e = ping_10gbe(payload, 20);
        let r0 = ping_mcn(0, McnMode::McnMcn, payload, 20);
        let r1 = ping_mcn(1, McnMode::McnMcn, payload, 20);
        let r5 = ping_mcn(5, McnMode::McnMcn, payload, 20);
        let n = |t: mcn_sim::SimTime| t.as_ns_f64() / base.as_ns_f64();
        println!(
            "{payload:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            n(e), n(r0), n(r1), n(r5)
        );
    }
    println!("\npaper: mcn5 reduces mcn-mcn RTT by 52-79% across packet sizes");
}
