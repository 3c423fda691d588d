//! Extension E1: sensitivity of the Rayleigh-designed guarantee to the
//! true fading law.
//!
//! LDP/RLE schedules are computed assuming Rayleigh fading (m = 1);
//! this experiment evaluates them under Nakagami-m channels for
//! m ∈ {0.5, 0.75, 1, 2, 4}: milder fading (m > 1) keeps the ε target,
//! more severe fading (m < 1) breaks it.

use fading_channel::NakagamiChannel;
use fading_core::algo::{ApproxLogN, Ldp, Rle};
use fading_core::{Problem, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::simulate_many_under;

fn main() {
    let cli = fading_bench::Cli::parse();
    let quick = cli.quick;
    let (instances, trials): (u64, u64) = if quick { (2, 300) } else { (5, 2000) };
    let ms = [0.5, 0.75, 1.0, 2.0, 4.0];
    let algos: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Ldp::new()),
        Box::new(Rle::new()),
        Box::new(ApproxLogN),
    ];
    println!(
        "# Extension E1 — failures/slot under Nakagami-m fading (schedules designed for m = 1)"
    );
    println!();
    print!("{:<12} {:>7}", "algorithm", "|S|");
    for m in ms {
        print!(" {:>9}", format!("m={m}"));
    }
    println!();
    for algo in &algos {
        let mut scheduled = 0.0;
        let mut failures = vec![0.0f64; ms.len()];
        for seed in 0..instances {
            let p = Problem::paper(UniformGenerator::paper(300).generate(seed), 3.0);
            let s = algo.schedule(&p);
            scheduled += s.len() as f64;
            for (k, &m) in ms.iter().enumerate() {
                let law = NakagamiChannel::new(*p.params(), m);
                failures[k] += simulate_many_under(&p, &s, &law, trials, seed).failed.mean;
            }
        }
        print!("{:<12} {:>7.1}", algo.name(), scheduled / instances as f64);
        for f in &failures {
            print!(" {:>9.3}", f / instances as f64);
        }
        println!();
    }
    println!();
    println!("ε·|S| is the per-slot budget the m = 1 design promises; watch it hold for");
    println!("m ≥ 1 and break for m < 1 (heavier-than-Rayleigh fading).");
    cli.write_manifest("ext_nakagami");
}
