//! The thread count has no visible effect: Monte-Carlo statistics are
//! bit-identical under `RAYON_NUM_THREADS` = 1, 2, 4 and unset, for
//! every fading law the driver takes.
//!
//! This file holds one test, so setting the variable races no other
//! test in its process.

use fading_channel::{ChannelParams, NakagamiChannel, ShadowedRayleigh};
use fading_core::algo::{ApproxLogN, Rle};
use fading_core::{Problem, Schedule, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::{simulate_many, simulate_many_under};

/// Every statistic of every (instance, law) pair; `Debug` prints each
/// `f64` exactly, so equal strings are equal bits.
fn all_stats(cases: &[(Problem, Schedule)]) -> Vec<String> {
    let mut out = Vec::new();
    for (p, s) in cases {
        let nakagami = NakagamiChannel::new(*p.params(), 0.75);
        let shadowed = ShadowedRayleigh::new(*p.params(), 6.0);
        out.push(format!("{:?}", simulate_many(p, s, 301, 7)));
        out.push(format!(
            "{:?}",
            simulate_many_under(p, s, &nakagami, 301, 8)
        ));
        out.push(format!(
            "{:?}",
            simulate_many_under(p, s, &shadowed, 301, 9)
        ));
    }
    out
}

#[test]
fn monte_carlo_statistics_ignore_the_thread_count() {
    let cases: Vec<(Problem, Schedule)> = (0..3)
        .map(|seed| {
            let links = UniformGenerator::paper(200).generate(seed);
            let scales = (0..links.len()).map(|i| [0.5, 1.0, 2.0][i % 3]).collect();
            let p = Problem::builder(links, ChannelParams::with_alpha(3.0))
                .power_scales(scales)
                .build();
            let s = if seed == 0 {
                Rle::new().schedule(&p)
            } else {
                ApproxLogN.schedule(&p)
            };
            (p, s)
        })
        .collect();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let want = all_stats(&cases);
    for threads in ["2", "4", ""] {
        if threads.is_empty() {
            std::env::remove_var("RAYON_NUM_THREADS");
        } else {
            std::env::set_var("RAYON_NUM_THREADS", threads);
        }
        assert_eq!(all_stats(&cases), want, "RAYON_NUM_THREADS={threads:?}");
    }
}
