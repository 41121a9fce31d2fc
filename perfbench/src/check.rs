//! Input generation and the correctness checks of every workload. Each
//! check is a pure function of the values it judges, so the tests can hand
//! it a deliberately wrong input and see it refuse.

use self_checkpoint::core::Recovery;
use self_checkpoint::ftsim::{ServiceReport, TenantOutcome};
use self_checkpoint::sim::SplitMix64;

/// Overwrite `buf` with finite values drawn from `seed`.
pub fn fill(buf: &mut [f64], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for v in buf {
        *v = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5;
    }
}

/// FNV-1a over the 64-bit words of `buf` (bit patterns, so `-0.0` and
/// `0.0` differ).
pub fn hash_f64(buf: &[f64]) -> u64 {
    hash_words(buf.iter().map(|v| v.to_bits()))
}

pub fn hash_bytes(b: &[u8]) -> u64 {
    hash_words(b.iter().map(|&x| u64::from(x)))
}

fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `protect`: a recovery must restore the last committed epoch with its
/// small state, and leave the workspace exactly as it was before the kill.
pub fn restored_exactly(
    rec: &Recovery,
    epoch: u64,
    a2: &[u8],
    hash_before_kill: u64,
    hash_after: u64,
) -> bool {
    matches!(rec, Recovery::Restored { epoch: e, a2: got, .. }
        if *e == epoch && got.as_slice() == a2)
        && hash_before_kill == hash_after
}

/// `protect`: the protocol's own split of a make (encode + flush) cannot
/// exceed the make the benchmark timed around it.
pub fn split_within_make(encode_s: f64, flush_s: f64, make_s: f64) -> bool {
    encode_s >= 0.0 && flush_s >= 0.0 && encode_s + flush_s <= make_s
}

/// `hpl-ft`: the healed solve passes and its residual is bit-identical to
/// the fault-free control of the same matrix.
pub fn solve_matches_control(passed: bool, residual: f64, control_residual: f64) -> bool {
    passed && residual.to_bits() == control_residual.to_bits()
}

/// `hpl-ft`: the daemon healed exactly the one node loss the run armed,
/// and the solve then matched the control.
pub fn healed_once(failures: usize, passed: bool, residual: f64, control_residual: f64) -> bool {
    failures == 1 && solve_matches_control(passed, residual, control_residual)
}

/// `service-storm`: a storm's report fingerprint hashes to `first`, the
/// hash of the first storm of the run (same plan and seeds); the first
/// storm (`None`) sets it.
pub fn fingerprint_repeats(first: Option<u64>, fingerprint: &str) -> bool {
    first.is_none_or(|h| h == hash_bytes(fingerprint.as_bytes()))
}

/// `service-storm`: every tenant completed a passing solve and no tenant
/// left segments on a foreign shard or leaked any off its own.
pub fn storm_clean(rep: &ServiceReport, tenants: usize) -> bool {
    rep.tenants.len() == tenants
        && rep.tenants.iter().all(|t| {
            matches!(&t.outcome, TenantOutcome::Completed(out) if out.hpl.passed)
                && t.foreign_on_shard.is_empty()
                && t.leaked_elsewhere.is_empty()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use self_checkpoint::core::RestoreSource;

    #[test]
    fn a_flipped_byte_in_a_recovered_workspace_is_refused() {
        let mut ws = vec![0.0; 1000];
        fill(&mut ws, 7);
        let before = hash_f64(&ws);
        let rec = Recovery::Restored {
            epoch: 3,
            a2: vec![3, 0, 0, 0],
            source: RestoreSource::CheckpointAndChecksum,
        };
        assert!(restored_exactly(
            &rec,
            3,
            &[3, 0, 0, 0],
            before,
            hash_f64(&ws)
        ));
        let mut bits = ws[517].to_bits();
        bits ^= 1 << 13;
        ws[517] = f64::from_bits(bits);
        assert!(!restored_exactly(
            &rec,
            3,
            &[3, 0, 0, 0],
            before,
            hash_f64(&ws)
        ));
    }

    #[test]
    fn a_wrong_epoch_small_state_or_missing_checkpoint_is_refused() {
        let rec = Recovery::Restored {
            epoch: 3,
            a2: vec![3],
            source: RestoreSource::WorkspaceAndChecksum,
        };
        assert!(!restored_exactly(&rec, 4, &[3], 1, 1));
        assert!(!restored_exactly(&rec, 3, &[4], 1, 1));
        assert!(!restored_exactly(&Recovery::NoCheckpoint, 3, &[3], 1, 1));
    }

    #[test]
    fn a_split_larger_than_its_make_is_refused() {
        assert!(split_within_make(0.02, 0.01, 0.05));
        assert!(!split_within_make(0.04, 0.02, 0.05));
    }

    #[test]
    fn a_residual_one_ulp_off_or_a_failed_solve_is_refused() {
        let r = 0.012_345_f64;
        assert!(solve_matches_control(true, r, r));
        assert!(!solve_matches_control(
            true,
            f64::from_bits(r.to_bits() + 1),
            r
        ));
        assert!(!solve_matches_control(false, r, r));
    }

    #[test]
    fn a_solve_healed_zero_or_two_times_is_refused() {
        let r = 0.012_345_f64;
        assert!(healed_once(1, true, r, r));
        assert!(!healed_once(0, true, r, r));
        assert!(!healed_once(2, true, r, r));
        assert!(!healed_once(1, false, r, r));
    }

    #[test]
    fn a_different_fingerprint_is_refused() {
        let fp = "tenant=t0 launches=2 slices=9 failures=1\n";
        let first = Some(hash_bytes(fp.as_bytes()));
        assert!(fingerprint_repeats(None, fp));
        assert!(fingerprint_repeats(first, fp));
        assert!(!fingerprint_repeats(
            first,
            "tenant=t0 launches=3 slices=9 failures=1\n"
        ));
    }

    #[test]
    fn hashes_see_every_word() {
        let a = [1.0, 2.0, 3.0];
        assert_ne!(hash_f64(&a), hash_f64(&[1.0, 3.0, 2.0]));
        assert_ne!(hash_f64(&[0.0]), hash_f64(&[-0.0]));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ba"));
    }
}
