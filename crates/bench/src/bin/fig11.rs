//! Fig. 11: NPB execution time on a scale-up server (4/8/12/16 cores) vs
//! an MCN-enabled server (4-core host + 0/1/2/3 DIMMs), normalized to the
//! 4-core conventional server.
use mcn::SystemConfig;
use mcn_sweep::scenarios::{workload_mcn, workload_scaleup};
use mcn_mpi::WorkloadSpec;

fn main() {
    println!("Fig 11: NPB execution time normalized to a 4-core conventional server");
    println!(
        "{:<6} {:>22} {:>26}",
        "bench", "scale-up 4/8/12/16 cores", "MCN 0/1/2/3 DIMMs"
    );
    let cfg4 = SystemConfig {
        host_cores: 4,
        ..SystemConfig::default()
    };
    for spec in WorkloadSpec::npb() {
        let base = workload_scaleup(spec, 4, 4);
        assert!(base.verified);
        let mut su = vec![1.0f64];
        for cores in [8usize, 12, 16] {
            let r = workload_scaleup(spec, cores, cores);
            su.push(r.completion.as_secs_f64() / base.completion.as_secs_f64());
        }
        let mut mc = vec![1.0f64];
        for d in [1usize, 2, 3] {
            let r = workload_mcn(&cfg4, spec, d, 3, 4, 4);
            assert!(r.verified);
            mc.push(r.completion.as_secs_f64() / base.completion.as_secs_f64());
        }
        println!(
            "{:<6} {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>6} {:>5.2} {:>5.2} {:>5.2} {:>5.2}",
            spec.name, su[0], su[1], su[2], su[3], "", mc[0], mc[1], mc[2], mc[3]
        );
    }
    println!("\npaper: MCN with 1/2/3 DIMMs improves NPB time by 27.2%/42.9%/45.3% on average");
    println!("       vs the equal-core scale-up; ep gains nothing; cg loses with 1 DIMM");
}
