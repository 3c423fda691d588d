//! Extension E2: log-normal shadowing on top of Rayleigh fast fading.
//!
//! Quasi-static shadowing (σ ∈ {0, 2, 4, 8} dB) is invisible to the
//! paper's model; this experiment measures how quickly the 1 − ε
//! guarantee of LDP/RLE erodes as σ grows.

use fading_channel::ShadowedRayleigh;
use fading_core::algo::{Ldp, Rle};
use fading_core::{Problem, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::simulate_many_under;

fn main() {
    let cli = fading_bench::Cli::parse();
    let quick = cli.quick;
    let (instances, trials): (u64, u64) = if quick { (2, 300) } else { (5, 2000) };
    let sigmas = [0.0, 2.0, 4.0, 8.0];
    let algos: Vec<Box<dyn Scheduler>> = vec![Box::new(Ldp::new()), Box::new(Rle::new())];
    println!("# Extension E2 — failures/slot under log-normal shadowing (σ in dB)");
    println!();
    print!("{:<12} {:>7}", "algorithm", "|S|");
    for s in sigmas {
        print!(" {:>9}", format!("σ={s}"));
    }
    println!();
    for algo in &algos {
        let mut scheduled = 0.0;
        let mut failures = vec![0.0f64; sigmas.len()];
        for seed in 0..instances {
            let p = Problem::paper(UniformGenerator::paper(300).generate(seed), 3.0);
            let s = algo.schedule(&p);
            scheduled += s.len() as f64;
            for (k, &sigma) in sigmas.iter().enumerate() {
                let law = ShadowedRayleigh::new(*p.params(), sigma);
                failures[k] += simulate_many_under(&p, &s, &law, trials, seed).failed.mean;
            }
        }
        print!("{:<12} {:>7.1}", algo.name(), scheduled / instances as f64);
        for f in &failures {
            print!(" {:>9.3}", f / instances as f64);
        }
        println!();
    }
    cli.write_manifest("ext_shadowing");
}
