//! Table III: end-to-end latency breakdown for transmitting/receiving a
//! single TCP packet (1.5KB and 9KB), 10GbE vs MCN-0, components
//! normalized to the 10GbE total.
use mcn_sweep::scenarios::{table3_10gbe, table3_mcn};

fn main() {
    println!("Table III: latency component breakdown (normalized to the 10GbE total)");
    println!(
        "{:<6} {:<7} {:>10} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "size", "type", "DriverTX", "DMA-TX", "PHY", "DMA-RX", "DriverRX", "Total"
    );
    for (label, payload, mcn_level) in [("1.5KB", 1448u64, 0u32), ("9KB", 8960, 3)] {
        let eth = table3_10gbe(payload);
        let total = eth.total_ns();
        let mcn = table3_mcn(payload, mcn_level);
        let n = |x: f64| x / total;
        println!(
            "{label:<6} {:<7} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>8.3}",
            "10GbE",
            n(eth.driver_tx_ns), n(eth.dma_tx_ns), n(eth.phy_ns), n(eth.dma_rx_ns),
            n(eth.driver_rx_ns), 1.0
        );
        println!(
            "{label:<6} {:<7} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>8.3}",
            "MCN-0",
            n(mcn.driver_tx_ns), 0.0, 0.0, 0.0, n(mcn.driver_rx_ns),
            n(mcn.total_ns())
        );
    }
    println!("\npaper 1.5KB: 10GbE total 1.0 (PHY 0.479, DriverRX 0.500); MCN-0 total 0.320");
}
