//! One link check, two entry points.
//!
//! `LinkSet::try_new` (instance files, generators) and `Problem::apply`
//! (live mutation batches) both validate links through
//! `fading_net::validate_link` plus a duplicate-position check. This
//! file pins that they agree: every malformed link is rejected by both
//! with the same `ValidationError`, and `apply` rejects it atomically —
//! the problem, its stamp, and its external handles are untouched. A fuzz
//! property then feeds `apply` batches built from arbitrary `f64` bit
//! patterns and requires a typed result, never a panic.

use fading_channel::ChannelParams;
use fading_core::{BackendChoice, LinkSpec, MutationBatch, MutationError, Problem, SparseConfig};
use fading_geom::{Point2, Rect};
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator, ValidationError};
use proptest::prelude::*;
use std::mem::discriminant;

fn backends() -> [BackendChoice; 2] {
    [
        BackendChoice::Dense,
        BackendChoice::Sparse(SparseConfig::default()),
    ]
}

/// Three valid links; the malformed cases below collide with l0's
/// sender and l1's receiver.
fn base_links() -> LinkSet {
    let links = [
        ((0.0, 10.0), (3.0, 10.0)),
        ((20.0, 20.0), (5.0, 0.0)),
        ((40.0, 40.0), (42.0, 40.0)),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(s, r))| Link::new(LinkId(i as u32), s.into(), r.into(), 1.0))
    .collect();
    LinkSet::new(Rect::square(100.0), links)
}

/// The external handle of every live link, in dense order.
fn externals(p: &Problem) -> Vec<u64> {
    p.links().ids().map(|k| p.external(k)).collect()
}

/// A malformed link: `(label, sender, receiver, rate)`.
type Case = (String, Point2, Point2, f64);

fn malformed_links() -> Vec<Case> {
    let (s, r) = (Point2::new(60.0, 60.0), Point2::new(63.0, 60.0));
    let mut cases = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for coord in 0..4 {
            let mut xy = [s.x, s.y, r.x, r.y];
            xy[coord] = bad;
            cases.push((
                format!("coordinate {coord} = {bad}"),
                Point2::new(xy[0], xy[1]),
                Point2::new(xy[2], xy[3]),
                1.0,
            ));
        }
    }
    cases.push(("zero length".into(), s, s, 1.0));
    for rate in [0.0, f64::NAN, f64::INFINITY] {
        cases.push((format!("rate {rate}"), s, r, rate));
    }
    // −0.0 names the same position as +0.0.
    cases.push((
        "duplicate sender, -0.0".into(),
        Point2::new(-0.0, 10.0),
        r,
        1.0,
    ));
    cases.push((
        "duplicate receiver, -0.0".into(),
        s,
        Point2::new(5.0, -0.0),
        1.0,
    ));
    cases
}

/// Applies a one-add batch to a fresh problem over [`base_links`] and
/// returns its validation error, after checking that the rejection
/// left the problem, its stamp, and its handles untouched.
fn apply_error(backend: BackendChoice, spec: LinkSpec, label: &str) -> ValidationError {
    let mut p = Problem::builder(base_links(), ChannelParams::paper_defaults())
        .backend(backend)
        .build();
    let (before, stamp, handles) = (p.clone(), p.stamp(), externals(&p));
    let mut batch = MutationBatch::new();
    batch.add(spec);
    let err = match p.apply(&batch) {
        Err(MutationError::InvalidAdd { slot: 0, source }) => source,
        other => panic!("{label} ({backend:?}): expected InvalidAdd at slot 0, got {other:?}"),
    };
    assert_eq!(p, before, "{label} ({backend:?}): problem changed");
    assert_eq!(p.stamp(), stamp, "{label} ({backend:?}): stamp moved");
    assert_eq!(
        externals(&p),
        handles,
        "{label} ({backend:?}): handles changed"
    );
    err
}

#[test]
fn try_new_and_apply_reject_malformed_links_alike() {
    for (label, sender, receiver, rate) in malformed_links() {
        let base = base_links();
        let mut links = base.links().to_vec();
        // A struct literal: `Link::new` would panic on these.
        links.push(Link {
            id: LinkId(base.len() as u32),
            sender,
            receiver,
            rate,
        });
        let from_set = LinkSet::try_new(*base.region(), links)
            .expect_err(&format!("{label}: try_new accepted it"));
        for backend in backends() {
            let spec = LinkSpec::new(sender, receiver).with_rate(rate);
            let from_apply = apply_error(backend, spec, &label);
            assert_eq!(
                discriminant(&from_set),
                discriminant(&from_apply),
                "{label} ({backend:?}): {from_set:?} vs {from_apply:?}"
            );
            // Display names the ids and values, so equal messages mean
            // equal errors even where the payload is NaN.
            assert_eq!(from_set.to_string(), from_apply.to_string(), "{label}");
        }
    }
}

#[test]
fn apply_rejects_bad_power_scales() {
    let spec = LinkSpec::new(Point2::new(60.0, 60.0), Point2::new(63.0, 60.0));
    for scale in [0.0, f64::NAN] {
        for backend in backends() {
            let err = apply_error(backend, spec.with_power_scale(scale), "power scale");
            assert!(
                matches!(err, ValidationError::BadPowerScale { id: LinkId(3), .. }),
                "scale {scale} ({backend:?}): {err:?}"
            );
        }
    }
}

/// Special values the fuzz mixes in alongside arbitrary bit patterns.
const SPECIAL: [f64; 11] = [
    0.0,
    -0.0,
    1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    5e-324,
];

/// One fuzzed `f64` slot: `(roll, wild, plain)`. `wild` is an
/// arbitrary bit pattern (NaN payloads, subnormals, ±∞, huge and tiny
/// magnitudes) or a special value; `plain` is an ordinary in-region
/// value. The batch's wildness level compares against `roll` to pick
/// one, so batches range from all-valid (they commit) to all-wild.
type Slot = (u8, f64, f64);

fn slot() -> impl Strategy<Value = Slot> {
    (
        0u8..255,
        0u8..2,
        0u64..u64::MAX,
        0usize..SPECIAL.len(),
        0.0f64..600.0,
    )
        .prop_map(|(roll, which, bits, special, plain)| {
            let wild = if which == 0 {
                f64::from_bits(bits)
            } else {
                SPECIAL[special]
            };
            (roll, wild, plain)
        })
}

/// A fuzzed batch: a wildness level, up to 48 adds (six slots each:
/// sender, receiver, rate, power scale) and up to 16 removals
/// (`(kind, bits)`: mostly a live external id, sometimes any `u64`) —
/// at most 64 mutations.
type RawBatch = (u8, Vec<[Slot; 6]>, Vec<(u8, u64)>);

fn batch_strategy() -> impl Strategy<Value = RawBatch> {
    (
        0u8..4,
        collection::vec(
            (slot(), slot(), slot(), slot(), slot(), slot())
                .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]),
            0..49,
        ),
        collection::vec((0u8..4, 0u64..u64::MAX), 0..17),
    )
}

/// Decodes a [`RawBatch`] against the live problem's handles.
fn decode(raw: &RawBatch, p: &Problem) -> MutationBatch {
    let (level, adds, removes) = raw;
    let threshold = [0u32, 8, 64, 256][*level as usize];
    let pick = |&(roll, wild, plain): &Slot| {
        if u32::from(roll) < threshold {
            wild
        } else {
            plain
        }
    };
    let mut batch = MutationBatch::new();
    for v in adds {
        batch.add(
            LinkSpec::new(
                Point2::new(pick(&v[0]), pick(&v[1])),
                Point2::new(pick(&v[2]), pick(&v[3])),
            )
            .with_rate(pick(&v[4]))
            .with_power_scale(pick(&v[5])),
        );
    }
    for &(kind, bits) in removes {
        let live = externals(p);
        batch.remove(if kind < 3 && !live.is_empty() {
            live[(bits % live.len() as u64) as usize]
        } else {
            bits
        });
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `apply` answers any batch with `Ok` or a typed `MutationError`
    /// and never panics, on both backends; a rejected batch changes
    /// nothing, and every live link's handle names it. (Content is
    /// compared through links, powers, and the stamp: a committed wild
    /// link can store NaN factors, which `PartialEq` never equates.)
    #[test]
    fn apply_never_panics_on_arbitrary_batches(
        n in 1usize..10,
        seed in 0u64..1_000,
        sparse_bit in 0usize..2,
        batches in collection::vec(batch_strategy(), 1..4),
    ) {
        let backend = backends()[sparse_bit];
        let links = UniformGenerator::paper(n).generate(seed);
        let mut p = Problem::builder(links, ChannelParams::paper_defaults())
            .backend(backend)
            .build();
        for raw in &batches {
            let batch = decode(raw, &p);
            let (links, powers) = (p.links().clone(), p.power_scales().map(<[f64]>::to_vec));
            let (stamp, handles) = (p.stamp(), externals(&p));
            match p.apply(&batch) {
                Ok(receipt) => prop_assert_eq!(receipt.added.len(), batch.adds().len()),
                Err(err) => {
                    match err {
                        MutationError::UnknownExternal(ext) => {
                            prop_assert!(batch.removes().contains(&ext))
                        }
                        MutationError::InvalidAdd { slot, .. } => {
                            prop_assert!(slot < batch.adds().len())
                        }
                    }
                    prop_assert_eq!(p.stamp(), stamp);
                    prop_assert_eq!(p.links(), &links);
                    prop_assert_eq!(p.power_scales().map(<[f64]>::to_vec), powers);
                    prop_assert_eq!(externals(&p), handles);
                }
            }
            for k in p.links().ids() {
                prop_assert_eq!(p.id_of(p.external(k)), Some(k));
            }
        }
    }
}
