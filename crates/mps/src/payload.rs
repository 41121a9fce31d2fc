//! Typed message payloads and reduction operators.
//!
//! Messages carry typed vectors rather than raw bytes: ranks live in one
//! process, so moving a `Vec<f64>` is free of serialization cost, and the
//! reduce operators (`MPI_BXOR` on integer words, `MPI_SUM` on doubles —
//! §2.2 of the paper) stay type-safe.
//!
//! The two hot reduce arms — SUM over `F64` and XOR over `U64`, the ones
//! that carry whole checkpoint stripes — run on the cache-blocked
//! multi-threaded kernels from `skt_encoding::kernels`, under the
//! process-wide [`KernelConfig`].
//!
//! A rank with no data in a stripe contributes [`Payload::Zeros`]: a
//! zero stripe that is never allocated. It is charged on the wire like
//! the `len` 8-byte words it stands for, so modelled transfer times and
//! every virtual clock are the same as for a materialized zero stripe.
//! Under XOR it is the identity, and the reduce tree ([`ReduceOp::fold`])
//! skips it or adopts the first real operand in its place. Under every
//! other operator it is materialized first, so SUM keeps its IEEE
//! arithmetic bit for bit (`0.0 + -0.0 = +0.0`).

use skt_encoding::{kernels, KernelConfig};

/// A message body.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Double-precision data (matrix blocks, SUM-coded checksums).
    F64(Vec<f64>),
    /// 64-bit words (XOR-coded checksums — `f64` bit patterns).
    U64(Vec<u64>),
    /// Signed integers (pivot indices, iteration counters).
    I64(Vec<i64>),
    /// Raw bytes (serialized headers).
    Bytes(Vec<u8>),
    /// `len` zero words, never materialized: the contribution of a rank
    /// holding no data in a stripe. Combines with `F64`, `U64` and `I64`
    /// operands of the same length and is charged as `len * 8` bytes.
    Zeros(usize),
    /// Empty body (barriers, pure signals).
    Empty,
}

impl Payload {
    /// Number of elements (bytes for `Bytes`, 0 for `Empty`).
    pub fn len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::I64(v) => v.len(),
            Payload::Bytes(v) => v.len(),
            Payload::Zeros(n) => *n,
            Payload::Empty => 0,
        }
    }

    /// True when the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate wire size in bytes (for network-model accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::U64(v) => v.len() * 8,
            Payload::I64(v) => v.len() * 8,
            Payload::Bytes(v) => v.len(),
            Payload::Zeros(n) => n * 8,
            Payload::Empty => 0,
        }
    }

    /// Unwrap as `Vec<f64>` (materializing `Zeros`); panics on type
    /// mismatch (a protocol bug).
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            Payload::Zeros(n) => vec![0.0; n],
            other => panic!("expected F64 payload, got {:?}", other.kind()),
        }
    }

    /// Unwrap as `Vec<u64>` (materializing `Zeros`); panics on type
    /// mismatch.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            Payload::Zeros(n) => vec![0; n],
            other => panic!("expected U64 payload, got {:?}", other.kind()),
        }
    }

    /// Unwrap as `Vec<i64>` (materializing `Zeros`); panics on type
    /// mismatch.
    pub fn into_i64(self) -> Vec<i64> {
        match self {
            Payload::I64(v) => v,
            Payload::Zeros(n) => vec![0; n],
            other => panic!("expected I64 payload, got {:?}", other.kind()),
        }
    }

    /// Unwrap as `Vec<u8>`; panics on type mismatch.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(v) => v,
            other => panic!("expected Bytes payload, got {:?}", other.kind()),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::I64(_) => "I64",
            Payload::Bytes(_) => "Bytes",
            Payload::Zeros(_) => "Zeros",
            Payload::Empty => "Empty",
        }
    }

    /// An all-zero payload of this payload's word type and length — what
    /// a `Zeros` operand stands for next to it.
    fn zeros_like(&self) -> Payload {
        match self {
            Payload::F64(v) => Payload::F64(vec![0.0; v.len()]),
            Payload::U64(v) => Payload::U64(vec![0; v.len()]),
            Payload::I64(v) => Payload::I64(vec![0; v.len()]),
            other => panic!("reduce: Zeros unsupported against {}", other.kind()),
        }
    }
}

/// Element-wise reduction operator, the `MPI_Op` of a reduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Numeric addition (`MPI_SUM`); valid on `F64`, `U64`
    /// (wrapping), and `I64` (wrapping).
    Sum,
    /// Bitwise exclusive-or (`MPI_BXOR`); valid on `U64` and `Bytes`.
    Xor,
    /// Element-wise maximum; valid on `F64` and `I64`.
    Max,
    /// Element-wise minimum; valid on `F64` and `I64`.
    Min,
}

impl ReduceOp {
    /// `acc := acc op rhs` with `rhs` taken by value: one step of the
    /// reduce tree. Under `Xor` a [`Payload::Zeros`] operand is the
    /// identity — skipped as `rhs`, and as `acc` replaced by `rhs`'s
    /// buffer — so zero stripes cost no pass. Everything else goes
    /// through [`ReduceOp::apply`].
    pub fn fold(self, acc: &mut Payload, rhs: Payload) {
        assert_eq!(acc.len(), rhs.len(), "reduce: length mismatch");
        if self == ReduceOp::Xor {
            match (&*acc, &rhs) {
                (Payload::U64(_) | Payload::Zeros(_), Payload::Zeros(_)) => return,
                (Payload::Zeros(_), Payload::U64(_)) => {
                    *acc = rhs;
                    return;
                }
                _ => {}
            }
        }
        self.apply(acc, &rhs);
    }

    /// `acc := acc op rhs`, element-wise. A `Zeros` operand is
    /// materialized as zeros of the other operand's type first, so the
    /// arithmetic is exactly that of a materialized zero stripe. Panics
    /// on type mismatch or length mismatch — both indicate a collective
    /// protocol bug, not a runtime condition.
    pub fn apply(self, acc: &mut Payload, rhs: &Payload) {
        assert_eq!(acc.len(), rhs.len(), "reduce: length mismatch");
        match (&*acc, rhs) {
            // zeros op zeros is zeros under every operator
            (Payload::Zeros(_), Payload::Zeros(_)) => return,
            (Payload::Zeros(_), _) => *acc = rhs.zeros_like(),
            (_, Payload::Zeros(_)) => {
                let zeros = acc.zeros_like();
                return self.apply(acc, &zeros);
            }
            _ => {}
        }
        match (self, acc, rhs) {
            // Empty payloads reduce trivially under any op (barriers).
            (_, Payload::Empty, Payload::Empty) => {}
            (ReduceOp::Sum, Payload::F64(a), Payload::F64(b)) => {
                kernels::sum_accumulate(a, b, KernelConfig::global());
            }
            (ReduceOp::Sum, Payload::U64(a), Payload::U64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.wrapping_add(*y);
                }
            }
            (ReduceOp::Sum, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.wrapping_add(*y);
                }
            }
            (ReduceOp::Xor, Payload::U64(a), Payload::U64(b)) => {
                kernels::xor_accumulate_u64(a, b, KernelConfig::global());
            }
            (ReduceOp::Xor, Payload::Bytes(a), Payload::Bytes(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x ^= *y;
                }
            }
            (ReduceOp::Max, Payload::F64(a), Payload::F64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.max(*y);
                }
            }
            (ReduceOp::Max, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = (*x).max(*y);
                }
            }
            (ReduceOp::Min, Payload::F64(a), Payload::F64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.min(*y);
                }
            }
            (ReduceOp::Min, Payload::I64(a), Payload::I64(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = (*x).min(*y);
                }
            }
            (op, a, b) => panic!(
                "reduce op {:?} unsupported on ({}, {})",
                op,
                a.kind(),
                b.kind()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_f64() {
        let mut a = Payload::F64(vec![1.0, 2.0]);
        ReduceOp::Sum.apply(&mut a, &Payload::F64(vec![10.0, 20.0]));
        assert_eq!(a, Payload::F64(vec![11.0, 22.0]));
    }

    #[test]
    fn xor_u64_is_self_inverse() {
        let orig = vec![0xDEAD, 0xBEEF, 0x1234];
        let key = vec![0xAAAA, 0x5555, 0xFFFF];
        let mut a = Payload::U64(orig.clone());
        ReduceOp::Xor.apply(&mut a, &Payload::U64(key.clone()));
        ReduceOp::Xor.apply(&mut a, &Payload::U64(key));
        assert_eq!(a, Payload::U64(orig));
    }

    #[test]
    fn max_min_i64() {
        let mut a = Payload::I64(vec![1, 9]);
        ReduceOp::Max.apply(&mut a, &Payload::I64(vec![5, 2]));
        assert_eq!(a, Payload::I64(vec![5, 9]));
        ReduceOp::Min.apply(&mut a, &Payload::I64(vec![0, 100]));
        assert_eq!(a, Payload::I64(vec![0, 9]));
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn xor_on_f64_is_rejected() {
        let mut a = Payload::F64(vec![1.0]);
        ReduceOp::Xor.apply(&mut a, &Payload::F64(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_is_rejected() {
        let mut a = Payload::U64(vec![1]);
        ReduceOp::Xor.apply(&mut a, &Payload::U64(vec![1, 2]));
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64(vec![0.0; 3]).size_bytes(), 24);
        assert_eq!(Payload::Bytes(vec![0; 3]).size_bytes(), 3);
        assert_eq!(Payload::Empty.len(), 0);
        assert!(Payload::Empty.is_empty());
    }

    #[test]
    fn zeros_are_charged_like_a_materialized_stripe() {
        assert_eq!(
            Payload::Zeros(5).size_bytes(),
            Payload::U64(vec![0; 5]).size_bytes()
        );
        assert_eq!(
            Payload::Zeros(5).size_bytes(),
            Payload::F64(vec![0.0; 5]).size_bytes()
        );
        assert_eq!(Payload::Zeros(5).len(), 5);
        assert_eq!(Payload::Zeros(3).into_u64(), vec![0; 3]);
        assert_eq!(Payload::Zeros(2).into_f64(), vec![0.0; 2]);
    }

    #[test]
    fn xor_fold_skips_and_adopts_zeros() {
        let mut acc = Payload::Zeros(3);
        ReduceOp::Xor.fold(&mut acc, Payload::Zeros(3));
        assert_eq!(acc, Payload::Zeros(3), "all-zero stays unallocated");
        let word = Payload::U64(vec![7, 8, 9]);
        ReduceOp::Xor.fold(&mut acc, word.clone());
        assert_eq!(acc, word, "a zero accumulator adopts the operand");
        ReduceOp::Xor.fold(&mut acc, Payload::Zeros(3));
        assert_eq!(acc, word, "a zero operand is skipped");
        // the by-reference path agrees
        let mut acc = Payload::Zeros(3);
        ReduceOp::Xor.apply(&mut acc, &word);
        assert_eq!(acc, word);
    }

    #[test]
    fn sum_against_zeros_keeps_ieee_arithmetic() {
        // +0.0 + -0.0 = +0.0 on either side: a zero stripe must not turn
        // into the identity under SUM.
        for zeros_first in [true, false] {
            let neg = Payload::F64(vec![-0.0, 2.5]);
            let (mut acc, rhs) = if zeros_first {
                (Payload::Zeros(2), neg)
            } else {
                (neg, Payload::Zeros(2))
            };
            ReduceOp::Sum.fold(&mut acc, rhs);
            let v = acc.into_f64();
            assert_eq!(
                v[0].to_bits(),
                0.0f64.to_bits(),
                "zeros_first={zeros_first}"
            );
            assert_eq!(v[1], 2.5);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_against_zeros_is_rejected() {
        let mut a = Payload::Zeros(2);
        ReduceOp::Xor.fold(&mut a, Payload::U64(vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn xor_of_zeros_into_f64_is_rejected() {
        let mut a = Payload::Zeros(1);
        ReduceOp::Xor.fold(&mut a, Payload::F64(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn typed_unwrap_enforced() {
        Payload::U64(vec![1]).into_f64();
    }
}
