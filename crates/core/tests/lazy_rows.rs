//! Dense rows evaluated on first read are the eager matrix, bit for
//! bit.
//!
//! Every dense factor comes from one per-pair expression, whichever
//! row or single factor is read first, in whatever order, from however
//! many threads. These properties check it against the per-pair
//! formula of Eq. (17), with and without power scales, at sizes on both
//! sides of 64 links; check that `Problem::apply` on a partially read
//! matrix (a read row removed, a read tail moved into a hole, links
//! appended onto read rows) equals a fresh build in every factor; and
//! check that `Problem` equality ignores which rows were read.

use fading_channel::ChannelParams;
use fading_core::{LinkSpec, MutationBatch, Problem};
use fading_geom::Point2;
use fading_math::seeded_rng;
use fading_net::{LinkId, LinkSet, TopologyGenerator, UniformGenerator};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// A paper instance of `n` links, power-scaled when `powered`.
fn instance(n: usize, seed: u64, alpha: f64, powered: bool) -> Problem {
    let links = UniformGenerator::paper(n).generate(seed);
    let builder = Problem::builder(links, ChannelParams::with_alpha(alpha));
    if powered {
        let scales = (0..n).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
        builder.power_scales(scales).build()
    } else {
        builder.build()
    }
}

/// `f_{i,j}` by the per-pair formula.
fn formula(p: &Problem, i: LinkId, j: LinkId) -> f64 {
    if i == j {
        return 0.0;
    }
    let links = p.links();
    let (d_ij, d_jj) = (links.sender_receiver_distance(i, j), links.length(j));
    match p.power_scales() {
        None => p.channel().interference_factor(d_ij, d_jj),
        Some(s) => p
            .channel()
            .interference_factor_scaled(d_ij, d_jj, s[i.index()], s[j.index()]),
    }
}

/// Row `i` read whole, or its entries read one factor at a time.
fn read(p: &Problem, i: LinkId, whole: bool) -> Vec<u64> {
    if whole {
        let row = p.dense_row(i).expect("a dense store");
        row.iter().map(|f| f.to_bits()).collect()
    } else {
        p.links().ids().map(|j| p.factor(i, j).to_bits()).collect()
    }
}

/// Row `i` by the formula.
fn expected(p: &Problem, i: LinkId) -> Vec<u64> {
    p.links()
        .ids()
        .map(|j| formula(p, i, j).to_bits())
        .collect()
}

/// Dense rows read so far.
fn rows_filled(p: &Problem) -> usize {
    p.factors().as_dense().expect("a dense store").rows_filled()
}

/// Reads the rows `ids` of `p`, in order.
fn read_rows(p: &Problem, ids: &[LinkId]) {
    for &i in ids {
        p.dense_row(i).expect("a dense store");
    }
}

/// A from-scratch build over `p`'s current links and power scales.
fn rebuild(p: &Problem) -> Problem {
    let links = LinkSet::new(*p.links().region(), p.links().links().to_vec());
    let builder = Problem::builder(links, *p.params());
    match p.power_scales() {
        Some(scales) => builder.power_scales(scales.to_vec()).build(),
        None => builder.build(),
    }
}

/// Every row of `p` (read now where it was not) against the formula.
fn assert_every_factor(p: &Problem, label: &str) {
    for i in p.links().ids() {
        assert_eq!(read(p, i, true), expected(p, i), "{label}: row {i}");
    }
}

/// A batch removing the live links `ids` and adding `adds` short links
/// outside the paper region, at positions of their own per `tag`.
fn batch(p: &Problem, ids: &[LinkId], adds: usize, tag: usize) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for &id in ids {
        batch.remove(p.external(id));
    }
    for a in 0..adds {
        let x = 2_000.0 + (tag * 16 + a) as f64 * 3.0;
        let spec = LinkSpec::new(Point2::new(x, 5.0), Point2::new(x + 2.0, 6.0));
        batch.add(spec.with_power_scale(0.5 + a as f64 * 0.25));
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows and single factors read interleaved in a random order equal
    /// the formula, and reading more leaves what was read unchanged.
    #[test]
    fn rows_read_in_any_order_match_the_formula(
        n_idx in 0usize..6,
        seed in 0u64..10_000,
        alpha_idx in 0usize..3,
        powered in 0u8..2,
        order_seed in 0u64..u64::MAX,
    ) {
        let n = [2usize, 17, 63, 64, 65, 100][n_idx];
        let alpha = [2.5, 3.0, 4.5][alpha_idx];
        let powered = powered == 1;
        let p = instance(n, seed, alpha, powered);
        let mut rng = seeded_rng(order_seed);
        let mut order: Vec<LinkId> = p.links().ids().collect();
        order.shuffle(&mut rng);
        for (k, &i) in order.iter().enumerate() {
            let whole = rng.gen_bool(0.5);
            prop_assert_eq!(read(&p, i, whole), expected(&p, i), "row {}", i);
            prop_assert_eq!(rows_filled(&p), k + 1);
            // A single factor of a row already read fills nothing new.
            let j = order[rng.gen_range(0..=k)];
            let f = LinkId(rng.gen_range(0..n as u32));
            prop_assert_eq!(p.factor(j, f).to_bits(), formula(&p, j, f).to_bits());
            prop_assert_eq!(rows_filled(&p), k + 1);
        }
        prop_assert_eq!(&p, &instance(n, seed, alpha, powered));
    }

    /// Two threads reading the rows of one problem in different orders
    /// see the formula, whichever of them fills a row.
    #[test]
    fn rows_read_from_two_threads_match_the_formula(
        n_idx in 0usize..4,
        seed in 0u64..10_000,
        powered in 0u8..2,
        order_seed in 0u64..u64::MAX,
    ) {
        let n = [63usize, 64, 65, 120][n_idx];
        let p = instance(n, seed, 3.0, powered == 1);
        let mut orders: Vec<Vec<LinkId>> = Vec::new();
        for t in 0..2u64 {
            let mut order: Vec<LinkId> = p.links().ids().collect();
            order.shuffle(&mut seeded_rng(order_seed ^ t));
            orders.push(order);
        }
        let seen: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = orders
                .iter()
                .enumerate()
                .map(|(t, order)| {
                    let p = &p;
                    s.spawn(move || {
                        order.iter().map(|&i| read(p, i, t == 0)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("reader")).collect()
        });
        for (order, rows) in orders.iter().zip(&seen) {
            for (&i, row) in order.iter().zip(rows) {
                prop_assert_eq!(row, &expected(&p, i), "row {}", i);
            }
        }
        prop_assert_eq!(rows_filled(&p), n);
    }

    /// `apply` on a partially read matrix equals a fresh build in every
    /// factor: removals of read and unread rows (a read tail moving into
    /// a hole among them) and appends onto read rows, uniform and
    /// powered.
    #[test]
    fn apply_on_partly_read_rows_equals_a_fresh_build(
        n_idx in 0usize..3,
        seed in 0u64..10_000,
        powered in 0u8..2,
        steps in proptest::collection::vec((0u64..u64::MAX, 0usize..4, 0usize..4), 1..6),
    ) {
        let n = [8usize, 40, 70][n_idx];
        let mut p = instance(n, seed, 3.0, powered == 1);
        for (tag, &(pick, removes, adds)) in steps.iter().enumerate() {
            let mut rng = seeded_rng(pick);
            let mut ids: Vec<LinkId> = p.links().ids().collect();
            ids.shuffle(&mut rng);
            // Read about half the rows, always the tail's.
            let tail = LinkId(p.len() as u32 - 1);
            let mut read_now: Vec<LinkId> = ids[..p.len() / 2].to_vec();
            read_now.push(tail);
            read_rows(&p, &read_now);
            let victims: Vec<LinkId> = ids
                .iter()
                .copied()
                .filter(|&i| i != tail)
                .take(removes.min(p.len().saturating_sub(2)))
                .collect();
            p.apply(&batch(&p, &victims, adds, tag)).expect("a valid batch");
            let fresh = rebuild(&p);
            prop_assert_eq!(&p, &fresh, "step {}", tag);
            for i in p.links().ids() {
                if let Some(row) = p.factors().as_dense().and_then(|m| m.filled_row(i)) {
                    let bits: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
                    prop_assert_eq!(bits, expected(&p, i), "step {}: row {}", tag, i);
                }
            }
        }
        assert_every_factor(&p, "end");
    }
}

/// The three patch cases one at a time, with the rows they move read.
#[test]
fn patches_move_read_rows_and_leave_unread_ones_unread() {
    // A read row removed: the unread tail takes its slot, unread.
    let mut p = instance(30, 3, 3.0, false);
    read_rows(&p, &[LinkId(4), LinkId(9)]);
    p.apply(&batch(&p, &[LinkId(4)], 0, 0)).unwrap();
    assert_eq!(rows_filled(&p), 1);
    assert!(p
        .factors()
        .as_dense()
        .unwrap()
        .filled_row(LinkId(4))
        .is_none());
    assert_eq!(p, rebuild(&p));

    // A read tail moved into a hole.
    let mut p = instance(30, 3, 3.0, true);
    read_rows(&p, &[LinkId(29), LinkId(2)]);
    p.apply(&batch(&p, &[LinkId(11)], 0, 0)).unwrap();
    let m = p.factors().as_dense().unwrap();
    assert_eq!(m.rows_filled(), 2);
    let moved: Vec<u64> = m
        .filled_row(LinkId(11))
        .unwrap()
        .iter()
        .map(|f| f.to_bits())
        .collect();
    assert_eq!(moved, expected(&p, LinkId(11)));
    assert_eq!(p, rebuild(&p));

    // Appends onto read rows: only their new columns are evaluated.
    let mut p = instance(30, 3, 3.0, false);
    read_rows(&p, &[LinkId(0), LinkId(7), LinkId(29)]);
    let cells = fading_obs::counter!("problem.mutate.dense_cells");
    let before = cells.value();
    p.apply(&batch(&p, &[], 3, 1)).unwrap();
    assert!(cells.value() - before >= 9);
    assert_eq!(rows_filled(&p), 3);
    assert_eq!(p, rebuild(&p));
    assert_every_factor(&p, "appended");
}

/// Equality is content equality: a problem equals itself whatever rows
/// either side has read, and a read row that differs is seen.
#[test]
fn equality_ignores_which_rows_were_read() {
    let a = instance(70, 11, 3.0, true);
    let b = instance(70, 11, 3.0, true);
    read_rows(&a, &[LinkId(1), LinkId(2), LinkId(3)]);
    read_rows(&b, &[LinkId(3), LinkId(50)]);
    assert_eq!(a, b);
    assert_eq!(rows_filled(&a), 3, "comparing reads no row");
    assert_eq!(rows_filled(&b), 2);
    let c = instance(70, 12, 3.0, true);
    assert_ne!(a, c);
}
