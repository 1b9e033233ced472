//! Fig. 8(a): iperf bandwidth for mcn0..mcn5, host-mcn and mcn-mcn,
//! normalized to the 10GbE baseline.
use mcn::{McnConfig, SystemConfig};
use mcn_sweep::scenarios::{iperf_10gbe, iperf_mcn, McnMode};

fn main() {
    let cfg = SystemConfig::default();
    let base = iperf_10gbe();
    println!("Fig 8(a): iperf bandwidth normalized to 10GbE ({:.2} Gbps)", base.gbps);
    println!("{:<6} {:>12} {:>12} | {:>12} {:>12}", "level", "host-mcn", "(norm)", "mcn-mcn", "(norm)");
    for level in 0..=5u32 {
        let h = iperf_mcn(&cfg, McnConfig::level(level), McnMode::HostMcn);
        let m = iperf_mcn(&cfg, McnConfig::level(level), McnMode::McnMcn);
        println!(
            "mcn{level:<3} {:>9.2} Gb {:>11.2}x | {:>9.2} Gb {:>11.2}x",
            h.gbps,
            h.gbps / base.gbps,
            m.gbps,
            m.gbps / base.gbps
        );
    }
    println!("\npaper (host-mcn): mcn0 1.30x .. mcn5 4.56x; mcn-mcn 10-20% lower at mcn3..5");
}
