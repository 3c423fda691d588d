//! Extension E8: communication cost of the DLS protocol.
//!
//! Reports DLS's convergence rounds and traffic by message kind across
//! N — the numbers a protocol evaluation would quote — from
//! [`Dls::outcome`]. `crates/core/tests/dls_protocol.rs` checks those
//! counts against the protocol run as per-node message passing.

use fading_core::algo::Dls;
use fading_core::Problem;
use fading_net::{TopologyGenerator, UniformGenerator};

fn main() {
    let cli = fading_bench::Cli::parse();
    let quick = cli.quick;
    let (ns, instances): (&[usize], u64) = if quick {
        (&[100, 300], 2)
    } else {
        (&[100, 200, 300, 400, 500], 5)
    };
    println!("# Extension E8 — DLS protocol overhead (means over instances)");
    println!();
    println!(
        "{:>6} {:>7} {:>8} {:>8} {:>9} {:>7} {:>6} {:>12}",
        "N", "|S|", "rounds", "hello", "status", "clear", "nack", "msgs/node"
    );
    for &n in ns {
        let mut sched = 0.0;
        let mut rounds = 0.0;
        let (mut hello, mut status, mut clear, mut nack) = (0.0, 0.0, 0.0, 0.0);
        for seed in 0..instances {
            let p = Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0);
            let out = Dls::new().outcome(&p);
            sched += out.schedule.len() as f64;
            rounds += out.rounds as f64;
            hello += out.hello as f64;
            status += out.status as f64;
            clear += out.clear as f64;
            nack += out.nack as f64;
        }
        let k = instances as f64;
        let total = (hello + status + clear + nack) / k;
        println!(
            "{:>6} {:>7.1} {:>8.1} {:>8.1} {:>9.1} {:>7.1} {:>6.1} {:>12.2}",
            n,
            sched / k,
            rounds / k,
            hello / k,
            status / k,
            clear / k,
            nack / k,
            total / n as f64
        );
    }
    println!();
    println!("Traffic is dominated by per-round Status beacons; rounds stay flat in N");
    println!("because non-contending links activate in parallel.");
    cli.write_manifest("ext_dls_overhead");
}
