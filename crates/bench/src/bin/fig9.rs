//! Fig. 9: aggregate DRAM bandwidth utilization of an MCN-enabled server
//! with 2/4/6/8 DIMMs, normalized to a conventional server running the
//! same workload.
//!
//! Set MCN_QUICK=1 to run the NPB subset only.
use mcn::SystemConfig;
use mcn_sweep::scenarios::{workload_conventional, workload_mcn};
use mcn_mpi::WorkloadSpec;

fn main() {
    let specs = if std::env::var("MCN_QUICK").is_ok() {
        WorkloadSpec::npb()
    } else {
        WorkloadSpec::all()
    };
    let dimm_counts = [2usize, 4, 6, 8];
    println!("Fig 9: aggregate memory bandwidth, normalized to a conventional server");
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "workload", "conv GB/s", "2", "4", "6", "8"
    );
    let mut geo = [0.0f64; 4];
    let mut rows = 0;
    for spec in &specs {
        let base = workload_conventional(*spec, 8);
        assert!(base.verified, "{} failed verification", spec.name);
        let mut cells = Vec::new();
        for (i, &d) in dimm_counts.iter().enumerate() {
            let r = workload_mcn(&SystemConfig::default(), *spec, d, 3, 8, 3);
            assert!(r.verified, "{} on {d} DIMMs failed verification", spec.name);
            let norm = r.agg_bw / base.agg_bw;
            geo[i] += norm.ln();
            cells.push(norm);
        }
        rows += 1;
        println!(
            "{:<10} {:>10.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            spec.name,
            base.agg_bw / 1e9,
            cells[0], cells[1], cells[2], cells[3]
        );
    }
    print!("{:<10} {:>10} ", "geomean", "");
    for g in geo {
        print!("{:>8.2} ", (g / rows as f64).exp());
    }
    println!("\n\npaper: average 1.76x / 2.6x / 3.3x / 3.9x for 2/4/6/8 DIMMs (max 8.17x)");
}
