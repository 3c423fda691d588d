//! Extension E9: stability regions under online packet arrivals.
//!
//! Bernoulli arrivals per link per slot; the scheduler serves the
//! backlog every slot; the Rayleigh channel decides delivery. Sweeping
//! the offered load locates each algorithm's saturation point — the
//! queueing-theoretic meaning of "throughput".

use fading_core::algo::{Dls, GreedyRate, Ldp, Rle};
use fading_core::{Problem, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::{ChurnConfig, ChurnEngine, ServicePolicy};

fn main() {
    let cli = fading_bench::Cli::parse();
    let quick = cli.quick;
    let slots: u64 = if quick { 300 } else { 1500 };
    let n = 150;
    let loads = [0.01, 0.03, 0.05, 0.10, 0.20];
    let algos: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Ldp::new()),
        Box::new(Rle::new()),
        Box::new(Dls::new()),
        Box::new(GreedyRate),
    ];
    println!("# Extension E9 — queueing: mean backlog (packets) vs offered load");
    println!("# N = {n} links, {slots} slots; offered load = N · arrival_prob packets/slot");
    println!();
    print!("{:<12}", "algorithm");
    for l in loads {
        print!(" {:>12}", format!("p={l}"));
    }
    println!();
    let geometry = UniformGenerator::paper(n);
    let p = Problem::paper(geometry.generate(17), 3.0);
    // One queueing run: the engine over a fixed population (no link
    // arrivals, lifetimes that never end).
    let mean_backlog = |algo: &dyn Scheduler, load: f64, policy: ServicePolicy| {
        let cfg = ChurnConfig {
            slots,
            link_arrival_rate: 0.0,
            mean_lifetime: f64::INFINITY,
            packet_prob: load,
            seed: 5,
        };
        ChurnEngine::new(p.clone(), geometry, cfg)
            .run(algo, policy)
            .mean_backlog
    };
    for algo in &algos {
        print!("{:<12}", algo.name());
        for &load in &loads {
            let backlog = mean_backlog(algo.as_ref(), load, ServicePolicy::PlainRates);
            print!(" {backlog:>12.1}");
        }
        println!();
    }
    // Backpressure variant of the strongest scheduler.
    print!("{:<12}", "Greedy+MaxW");
    for &load in &loads {
        print!(
            " {:>12.1}",
            mean_backlog(&GreedyRate, load, ServicePolicy::MaxWeight)
        );
    }
    println!();
    println!();
    println!("A backlog that grows with the horizon marks an unstable load; the");
    println!("feasibility-aware greedy sustains several times the load of the");
    println!("worst-case-guaranteed algorithms.");
    cli.write_manifest("ext_queueing");
}
