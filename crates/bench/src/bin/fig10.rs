//! Fig. 10: energy of an MCN server with 2/4/6/8 DIMMs vs a 10GbE
//! scale-out cluster with the same total core count (2/3/4/5 nodes).
//!
//! Set MCN_QUICK=1 to run the NPB subset only.
use mcn::SystemConfig;
use mcn_sweep::scenarios::{workload_cluster, workload_mcn};
use mcn_mpi::WorkloadSpec;

fn main() {
    let specs = if std::env::var("MCN_QUICK").is_ok() {
        WorkloadSpec::npb()
    } else {
        WorkloadSpec::all()
    };
    // Equal core counts: host 8 + 4k MCN cores vs 8 per node.
    let pairs = [(2usize, 2usize), (4, 3), (6, 4), (8, 5)];
    println!("Fig 10: MCN server energy relative to an equal-core 10GbE cluster");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "workload", "2d/2n", "4d/3n", "6d/4n", "8d/5n"
    );
    let mut sums = [0.0f64; 4];
    let mut rows = 0;
    for spec in &specs {
        let mut cells = Vec::new();
        for &(d, n) in &pairs {
            // Rank parity: 8 + 4d ranks on MCN; (8 + 4d)/n per node rounded.
            let mcn = workload_mcn(&SystemConfig::default(), *spec, d, 3, 8, 4);
            let total_ranks = 8 + 4 * d;
            let per_node = total_ranks.div_ceil(n);
            let cl = workload_cluster(*spec, n, per_node);
            assert!(mcn.verified && cl.verified, "{} failed", spec.name);
            cells.push(mcn.energy_j / cl.energy_j);
        }
        for (i, c) in cells.iter().enumerate() {
            sums[i] += c;
        }
        rows += 1;
        println!(
            "{:<10} {:>13.2}  {:>13.2}  {:>13.2}  {:>13.2}",
            spec.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    print!("{:<10}", "average");
    for s in sums {
        let avg = s / rows as f64;
        print!(" {:>9.2} (-{:>2.0}%)", avg, (1.0 - avg) * 100.0);
    }
    println!("\n\npaper: MCN consumes 23.5% / 37.7% / 45.5% / 57.5% less energy than 2/3/4/5 nodes");
}
