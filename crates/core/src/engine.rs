//! Communication kernels shared by every checkpoint protocol: stripe
//! parity encoding (the paper's `MPI_Reduce`-based checksum calculation,
//! §2.2) and lost-rank reconstruction, generalized over any
//! [`ErasureCodec`].
//!
//! Encoding runs `m` group-reduces per slot — one per parity role — with
//! roots rotating across the group (the stripe-based scheme of Figure 1
//! that avoids a single-node encoding bottleneck). Reconstruction of up
//! to `m` lost ranks runs in two phases: per-slot syndrome allreduces
//! plus a local codec solve rebuild the lost *data*, then one reduce per
//! lost parity role re-encodes the lost ranks' *parity* from the freshly
//! rebuilt data.
//!
//! Each contribution to a reduce costs one allocation and one pass over
//! the stripe: the codec builds it straight into a fresh buffer (for the
//! GF codecs a fused copy-and-scale, for XOR a plain copy), and that
//! buffer moves onto the `MPI_BXOR` wire as `u64` words and back by
//! reinterpretation ([`kernels::into_bits`] / [`kernels::into_floats`]),
//! never by conversion. A rank holding no data in a slot contributes
//! [`Payload::Zeros`], which is never allocated and which the XOR reduce
//! skips instead of combining. The bytes charged on the wire are those of
//! a materialized zero stripe, so modelled times are unchanged.

use skt_encoding::{kernels, ErasureCodec, GroupLayout, KernelConfig, Wire};
use skt_mps::{Comm, Fault, Payload, ReduceOp};

/// Rebuilt `(padded data, parity segment)` of a lost rank.
pub type Rebuilt = (Vec<f64>, Vec<f64>);

fn to_payload(wire: Wire, v: Vec<f64>) -> Payload {
    match wire {
        Wire::Bits => Payload::U64(kernels::into_bits(v)),
        Wire::Floats => Payload::F64(v),
    }
}

fn from_payload(wire: Wire, p: Payload) -> Vec<f64> {
    match wire {
        Wire::Bits => kernels::into_floats(p.into_u64()),
        Wire::Floats => p.into_f64(),
    }
}

fn op_of(wire: Wire) -> ReduceOp {
    match wire {
        Wire::Bits => ReduceOp::Xor,
        Wire::Floats => ReduceOp::Sum,
    }
}

/// Rank `me`'s contribution to slot `s`: its data stripe there passed
/// through `code(pos, stripe)`, or the unallocated zero stripe when `me`
/// holds a parity role of `s` instead.
fn contribution(
    layout: &GroupLayout,
    wire: Wire,
    me: usize,
    s: usize,
    data: &[f64],
    code: impl FnOnce(usize, &[f64]) -> Vec<f64>,
) -> Payload {
    match layout.contribution(me, s) {
        Some((pos, k)) => to_payload(wire, code(pos, layout.stripe(data, k))),
        None => Payload::Zeros(layout.stripe_len()),
    }
}

/// A parity segment from its per-role stripes, role `i` at
/// `layout.parity_range(i)`; with one role, that stripe itself (no copy).
fn parity_segment(layout: &GroupLayout, mut roles: Vec<Vec<f64>>) -> Result<Vec<f64>, Fault> {
    if roles.iter().any(|r| r.len() != layout.stripe_len()) {
        return Err(Fault::Protocol("a parity role never reached its owner"));
    }
    Ok(if roles.len() == 1 {
        roles.swap_remove(0)
    } else {
        roles.concat()
    })
}

/// Compute this rank's parity segment (the checksums of the `m` slots
/// whose parity roles it owns) from the group's padded `data` buffers.
///
/// Runs `m` stripe reduces per slot with rotating roots; every rank
/// returns its `layout.parity_len()`-element segment, role `i` at
/// `layout.parity_range(i)`. When `failpoint` is given, the probe fires
/// once per slot between slot reduces, exposing the "failure while
/// calculating a new checksum" window (paper CASE 1).
pub fn encode_parity(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    data: &[f64],
    failpoint: Option<&str>,
) -> Result<Vec<f64>, Fault> {
    let n = comm.size();
    let m = codec.parity_count();
    assert_eq!(n, layout.group_size(), "comm/layout size mismatch");
    assert_eq!(m, layout.parity_count(), "codec/layout parity mismatch");
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    let me = comm.rank();
    let wire = codec.wire();
    let kcfg = KernelConfig::global();
    let mut roles = vec![Vec::new(); m];
    for s in 0..n {
        for role in 0..m {
            let contrib = contribution(layout, wire, me, s, data, |pos, x| {
                codec.contrib(role, pos, x, kcfg)
            });
            let root = layout.parity_owner(s, role);
            if let Some(parity) = comm.reduce(op_of(wire), root, contrib)? {
                debug_assert_eq!(me, root);
                debug_assert_eq!(layout.parity_role(me, s), Some(role));
                roles[role] = from_payload(wire, parity);
            }
        }
        if let Some(label) = failpoint {
            comm.ctx().failpoint(label)?;
        }
    }
    parity_segment(layout, roles)
}

/// Rebuild the `lost` ranks' padded data buffers and parity segments
/// from the survivors' `data` and per-rank `my_parity` segments (their
/// `C` or `D`).
///
/// Survivors pass their live buffers; a lost rank's `data`/`my_parity`
/// contents are ignored (pass zeros of the right length). At most
/// `codec.parity_count()` ranks may be lost. Returns
/// `Some((data, parity))` at each lost rank, `None` elsewhere.
pub fn reconstruct_multi(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    lost: &[usize],
    data: &[f64],
    my_parity: &[f64],
) -> Result<Option<Rebuilt>, Fault> {
    let n = comm.size();
    let m = codec.parity_count();
    assert_eq!(n, layout.group_size(), "comm/layout size mismatch");
    assert_eq!(m, layout.parity_count(), "codec/layout parity mismatch");
    let mut lost: Vec<usize> = lost.to_vec();
    lost.sort_unstable();
    lost.dedup();
    assert!(lost.iter().all(|&l| l < n), "lost rank out of range");
    assert!(
        lost.len() <= m,
        "cannot rebuild {} erasures with {m} parity stripes",
        lost.len()
    );
    assert_eq!(data.len(), layout.padded_len(), "data must be padded");
    assert_eq!(
        my_parity.len(),
        layout.parity_len(),
        "parity length mismatch"
    );
    let me = comm.rank();
    let i_am_lost = lost.contains(&me);
    let wire = codec.wire();
    let kcfg = KernelConfig::global();

    let mut rebuilt_data = i_am_lost.then(|| kernels::zeroed(layout.padded_len()));

    // Phase A: per slot, allreduce one syndrome per surviving parity
    // role, then solve locally for the erased data stripes. A syndrome
    // is parity ⊕ cancel(surviving stripes) = the combination of the
    // erased stripes' contributions alone. With ≤ m total losses, each
    // slot always keeps at least as many roles as it lost data stripes.
    for s in 0..n {
        let erased: Vec<usize> = lost
            .iter()
            .filter_map(|&l| layout.codeword_pos(l, s))
            .collect();
        if erased.is_empty() {
            continue;
        }
        let mut syndromes: Vec<(usize, Vec<f64>)> = Vec::new();
        for role in 0..m {
            if lost.contains(&layout.parity_owner(s, role)) {
                continue; // this role's parity died with its owner
            }
            let contrib = if i_am_lost {
                Payload::Zeros(layout.stripe_len())
            } else if layout.parity_role(me, s) == Some(role) {
                to_payload(wire, my_parity[layout.parity_range(role)].to_vec())
            } else {
                // my cancelled stripe, or zeros when I own another role
                contribution(layout, wire, me, s, data, |pos, x| {
                    codec.cancel_contrib(role, pos, x, kcfg)
                })
            };
            let syndrome = comm.allreduce(op_of(wire), contrib)?;
            syndromes.push((role, from_payload(wire, syndrome)));
        }
        // A lost contributor of this slot keeps the stripe solved at its
        // own codeword position.
        if let (Some(mine), Some((my_pos, k))) = (rebuilt_data.as_mut(), layout.contribution(me, s))
        {
            let solved = codec.solve(&erased, &syndromes, kcfg);
            if let Some((_, stripe)) = erased.iter().zip(&solved).find(|(pos, _)| **pos == my_pos) {
                mine[layout.stripe_range(k)].copy_from_slice(stripe);
            }
        }
    }

    // Phase B: re-encode each lost rank's parity roles from the (now
    // complete) group data — one reduce per lost parity stripe, rooted
    // at its owner. Lost contributors feed their freshly rebuilt data.
    let mut rebuilt_roles = i_am_lost.then(|| vec![Vec::new(); m]);
    let my_data: &[f64] = rebuilt_data.as_deref().unwrap_or(data);
    for &l in &lost {
        for role in 0..m {
            let s = layout.parity_slot(l, role);
            let contrib = contribution(layout, wire, me, s, my_data, |pos, x| {
                codec.contrib(role, pos, x, kcfg)
            });
            let reduced = comm.reduce(op_of(wire), l, contrib)?;
            if let (Some(parity), Some(mine)) = (reduced, rebuilt_roles.as_mut()) {
                debug_assert_eq!(me, l);
                mine[role] = from_payload(wire, parity);
            }
        }
    }
    let rebuilt_parity = rebuilt_roles
        .map(|roles| parity_segment(layout, roles))
        .transpose()?;
    Ok(rebuilt_data.zip(rebuilt_parity))
}

/// Single-loss convenience wrapper over [`reconstruct_multi`].
pub fn reconstruct_lost(
    comm: &Comm<'_>,
    layout: &GroupLayout,
    codec: &dyn ErasureCodec,
    lost: usize,
    data: &[f64],
    my_parity: &[f64],
) -> Result<Option<Rebuilt>, Fault> {
    reconstruct_multi(comm, layout, codec, &[lost], data, my_parity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skt_encoding::{Code, CodecSpec};
    use skt_mps::run_local;

    fn rank_data(rank: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((rank * 1000 + i) as f64).sin() * 100.0)
            .collect()
    }

    fn sequential_parity(
        code: Code,
        layout: &GroupLayout,
        slot: usize,
        datasets: &[Vec<f64>],
    ) -> Vec<f64> {
        let mut acc = code.zero(layout.stripe_len());
        for (r, d) in datasets.iter().enumerate() {
            if let Some(k) = layout.stripe_of_slot(r, slot) {
                code.accumulate(&mut acc, layout.stripe(d, k));
            }
        }
        acc
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every rank's parity segment from a distributed encode of
    /// `datasets` (one padded buffer per rank).
    fn distributed_parity(
        layout: GroupLayout,
        codec: &'static dyn ErasureCodec,
        datasets: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let datasets = datasets.to_vec();
        run_local(layout.group_size(), move |ctx| {
            let w = ctx.world();
            encode_parity(&w, &layout, codec, &datasets[ctx.world_rank()], None)
        })
        .unwrap()
    }

    #[test]
    fn encode_matches_sequential_reference() {
        // The reference XORs each contributor's stripe, scaled on the
        // scalar kernel path, in rank order: the distributed encode must
        // agree bit for bit whatever its tree order, kernel path and
        // zero contributions.
        let scalar = KernelConfig::serial().with_simd(skt_encoding::SimdMode::ForceScalar);
        let specs = [
            CodecSpec::single(Code::Xor),
            CodecSpec::rs(1),
            CodecSpec::rs(2),
            CodecSpec::rs(3),
            CodecSpec::dual(),
        ];
        for spec in specs {
            let codec = spec.resolve();
            let m = codec.parity_count();
            for n in (m + 1).max(2)..=8 {
                let layout = GroupLayout::new_with_parity(n, m, 3 * n + 1);
                let datasets: Vec<Vec<f64>> =
                    (0..n).map(|r| rank_data(r, layout.padded_len())).collect();
                let out = distributed_parity(layout, codec, &datasets);
                for (r, parity) in out.iter().enumerate() {
                    for role in 0..m {
                        let slot = layout.parity_slot(r, role);
                        let mut expect = kernels::zeroed(layout.stripe_len());
                        for (c, d) in datasets.iter().enumerate() {
                            if let Some((pos, k)) = layout.contribution(c, slot) {
                                let x = codec.contrib(role, pos, layout.stripe(d, k), scalar);
                                kernels::xor_accumulate(&mut expect, &x, scalar);
                            }
                        }
                        assert_eq!(
                            bits(&parity[layout.parity_range(role)]),
                            bits(&expect),
                            "{} n={n} rank {r} role {role}",
                            codec.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sum_encode_keeps_ieee_zero_sign_bit_exact() {
        // Integer-valued data sums exactly in any order, so the parity
        // must match the sequential reference bit for bit — including
        // the elements where every stripe holds -0.0: the reference adds
        // them to +0.0 and gets +0.0, and so must the reduce, whose
        // parity owner contributes an unallocated zero stripe.
        let codec = CodecSpec::single(Code::Sum).resolve();
        for n in 2..=8 {
            let layout = GroupLayout::new(n, 3 * (n - 1)); // stripe 3
            let datasets: Vec<Vec<f64>> = (0..n)
                .map(|r| {
                    (0..layout.padded_len())
                        .map(|i| {
                            if i % 3 == 0 {
                                -0.0
                            } else {
                                (r * 100 + i) as f64
                            }
                        })
                        .collect()
                })
                .collect();
            let out = distributed_parity(layout, codec, &datasets);
            for (slot, parity) in out.iter().enumerate() {
                let expect = sequential_parity(Code::Sum, &layout, slot, &datasets);
                assert_eq!(bits(parity), bits(&expect), "n={n} slot {slot}");
                assert_eq!(parity[0].to_bits(), 0.0f64.to_bits(), "n={n}: +0.0");
            }
        }
    }

    #[test]
    fn reconstruct_recovers_each_possible_lost_rank() {
        let n = 4;
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(n, 10); // padded 12, stripe 4
        for lost in 0..n {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let me = ctx.world_rank();
                let data = rank_data(me, layout.padded_len());
                let parity = encode_parity(&w, &layout, codec, &data, None)?;
                // lost rank forgets everything
                let (d, p) = if me == lost {
                    (
                        vec![0.0; layout.padded_len()],
                        vec![0.0; layout.parity_len()],
                    )
                } else {
                    (data, parity)
                };
                reconstruct_lost(&w, &layout, codec, lost, &d, &p)
            })
            .unwrap();
            for (r, res) in out.iter().enumerate() {
                if r == lost {
                    let (d, p) = res.as_ref().unwrap();
                    let expect = rank_data(lost, layout.padded_len());
                    for (a, b) in d.iter().zip(&expect) {
                        assert_eq!(a.to_bits(), b.to_bits(), "lost {lost}: data mismatch");
                    }
                    // the rebuilt parity must equal a fresh sequential parity
                    let datasets: Vec<Vec<f64>> =
                        (0..n).map(|r| rank_data(r, layout.padded_len())).collect();
                    let expect_p = sequential_parity(Code::Xor, &layout, lost, &datasets);
                    for (a, b) in p.iter().zip(&expect_p) {
                        assert_eq!(a.to_bits(), b.to_bits(), "lost {lost}: parity mismatch");
                    }
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn reconstruct_with_sum_code_is_close() {
        let n = 3;
        let codec = CodecSpec::single(Code::Sum).resolve();
        let layout = GroupLayout::new(n, 8); // stripe 4
        let lost = 1;
        let out = run_local(n, move |ctx| {
            let w = ctx.world();
            let me = ctx.world_rank();
            let data = rank_data(me, layout.padded_len());
            let parity = encode_parity(&w, &layout, codec, &data, None)?;
            let (d, p) = if me == lost {
                (
                    vec![0.0; layout.padded_len()],
                    vec![0.0; layout.parity_len()],
                )
            } else {
                (data, parity)
            };
            reconstruct_lost(&w, &layout, codec, lost, &d, &p)
        })
        .unwrap();
        let (d, _) = out[lost].as_ref().unwrap();
        let expect = rank_data(lost, layout.padded_len());
        for (a, b) in d.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn group_of_two_mirrors_the_peer() {
        // N=2: one stripe, parity = the peer's whole buffer.
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(2, 6);
        assert_eq!(layout.stripe_len(), 6);
        let out = run_local(2, |ctx| {
            let w = ctx.world();
            let data = rank_data(ctx.world_rank(), 6);
            encode_parity(&w, &layout, codec, &data, None)
        })
        .unwrap();
        assert_eq!(out[0], rank_data(1, 6), "rank 0 stores rank 1's mirror");
        assert_eq!(out[1], rank_data(0, 6), "rank 1 stores rank 0's mirror");
    }

    #[test]
    fn encode_failpoint_label_fires() {
        use skt_cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
        use std::sync::Arc;
        let n = 4;
        let codec = CodecSpec::default().resolve();
        let layout = GroupLayout::new(n, 9);
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(n, 0)));
        // node 2 dies at its second encode probe
        cluster.arm_failure(FailurePlan::new("encode", 2, 2));
        let rl = Ranklist::round_robin(n, n);
        let res = skt_mps::run_on_cluster(cluster.clone(), &rl, |ctx| {
            let w = ctx.world();
            let data = rank_data(ctx.world_rank(), layout.padded_len());
            encode_parity(&w, &layout, codec, &data, Some("encode"))
        });
        assert!(res.is_err(), "job must abort");
        assert_eq!(cluster.dead_nodes(), vec![2]);
    }

    #[test]
    fn dual_codec_recovers_every_pair_of_lost_ranks() {
        let n = 5;
        let codec = CodecSpec::dual().resolve();
        let layout = GroupLayout::new_with_parity(n, 2, 12); // stripe 4
        assert_eq!(layout.parity_len(), 8);
        for a in 0..n {
            for b in a + 1..n {
                let lost = [a, b];
                let out = run_local(n, move |ctx| {
                    let w = ctx.world();
                    let me = ctx.world_rank();
                    let data = rank_data(me, layout.padded_len());
                    let parity = encode_parity(&w, &layout, codec, &data, None)?;
                    let (d, p) = if lost.contains(&me) {
                        (
                            vec![0.0; layout.padded_len()],
                            vec![0.0; layout.parity_len()],
                        )
                    } else {
                        (data, parity)
                    };
                    let rebuilt = reconstruct_multi(&w, &layout, codec, &lost, &d, &p)?;
                    // survivors report their parity so the test can check
                    // the rebuilt parity against the live one
                    Ok((rebuilt, p))
                })
                .unwrap();
                // every lost rank gets its exact data back
                for &l in &lost {
                    let (d, _) = out[l].0.as_ref().unwrap();
                    let expect = rank_data(l, layout.padded_len());
                    assert!(
                        d.iter()
                            .zip(&expect)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "pair ({a},{b}): lost {l} data"
                    );
                }
                // and a parity segment identical to a fresh encode
                let fresh = run_local(n, move |ctx| {
                    let w = ctx.world();
                    let data = rank_data(ctx.world_rank(), layout.padded_len());
                    encode_parity(&w, &layout, codec, &data, None)
                })
                .unwrap();
                for &l in &lost {
                    let (_, p) = out[l].0.as_ref().unwrap();
                    assert!(
                        p.iter()
                            .zip(&fresh[l])
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "pair ({a},{b}): lost {l} parity"
                    );
                }
                // survivors return None
                for r in 0..n {
                    if !lost.contains(&r) {
                        assert!(out[r].0.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn dual_codec_single_loss_also_recovers() {
        let n = 4;
        let codec = CodecSpec::dual().resolve();
        let layout = GroupLayout::new_with_parity(n, 2, 10); // stripe 5
        for lost in 0..n {
            let out = run_local(n, move |ctx| {
                let w = ctx.world();
                let me = ctx.world_rank();
                let data = rank_data(me, layout.padded_len());
                let parity = encode_parity(&w, &layout, codec, &data, None)?;
                let (d, p) = if me == lost {
                    (
                        vec![0.0; layout.padded_len()],
                        vec![0.0; layout.parity_len()],
                    )
                } else {
                    (data, parity)
                };
                reconstruct_lost(&w, &layout, codec, lost, &d, &p)
            })
            .unwrap();
            let (d, _) = out[lost].as_ref().unwrap();
            let expect = rank_data(lost, layout.padded_len());
            assert!(d
                .iter()
                .zip(&expect)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
