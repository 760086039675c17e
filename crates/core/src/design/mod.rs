//! Block designs: the combinatorial engine behind parity declustering.
//!
//! A *block design* arranges `v` distinct objects into `b` tuples of `k`
//! elements each, such that every object appears in exactly `r` tuples and
//! every pair of objects appears together in exactly `λ` tuples. Two
//! identities always hold: `bk = vr` and `r(k−1) = λ(v−1)`.
//!
//! Identifying objects with disks and tuples with parity stripes gives a
//! layout in which reconstruction work is spread perfectly evenly: when a
//! disk fails, every surviving disk reads exactly `λ` units per block
//! design table (paper, Section 4.2).
//!
//! The submodules provide the constructions the paper uses:
//! [`construct`] (complete designs, cyclic difference families, derived and
//! residual designs, Paley difference sets), [`appendix`] (the six designs
//! in the paper's appendix), and [`catalog`] (a searchable table in the
//! spirit of Hall's list, backing the paper's Figure 4-3).

pub mod appendix;
pub mod catalog;
pub mod construct;

use crate::error::Error;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The scalar parameters `(b, v, k, r, λ)` of a verified block design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignParams {
    /// Number of tuples (parity stripes per block design table).
    pub b: u64,
    /// Number of objects (disks).
    pub v: u16,
    /// Tuple size (parity stripe width, data + parity).
    pub k: u16,
    /// Tuples containing any given object.
    pub r: u64,
    /// Tuples containing any given pair of objects.
    pub lambda: u64,
}

impl DesignParams {
    /// The declustering ratio `α = (k−1)/(v−1)` this design yields when its
    /// objects are disks and tuples are parity stripes.
    pub fn alpha(&self) -> f64 {
        (self.k - 1) as f64 / (self.v - 1) as f64
    }

    /// Whether the design is *symmetric* (`b = v`, hence `k = r`); only
    /// symmetric designs admit derived and residual constructions.
    pub fn is_symmetric(&self) -> bool {
        self.b == self.v as u64
    }
}

impl fmt::Display for DesignParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={}, v={}, k={}, r={}, lambda={}",
            self.b, self.v, self.k, self.r, self.lambda
        )
    }
}

/// A balanced block design: `b` tuples of `k` distinct objects drawn from
/// `0..v`, with constant replication `r` and constant pair count `λ`.
///
/// Construction always verifies balance, so every `BlockDesign` value is a
/// genuine design — layouts built from one inherit its guarantees without
/// re-checking.
///
/// # Examples
///
/// The complete design of Figure 4-1:
///
/// ```
/// use decluster_core::design::BlockDesign;
///
/// let d = BlockDesign::complete(5, 4)?;
/// assert_eq!(d.params().b, 5);
/// assert_eq!(d.params().r, 4);
/// assert_eq!(d.params().lambda, 3);
/// assert_eq!(d.tuples().next().unwrap(), &[0, 1, 2, 3]);
/// # Ok::<(), decluster_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockDesign {
    v: u16,
    k: u16,
    /// Flattened tuples, row-major, each row `k` long.
    elements: Vec<u16>,
    params: DesignParams,
}

impl BlockDesign {
    /// Builds a design from explicit tuples, verifying that it is balanced.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadParameters`] if `v == 0`, the tuple list is
    /// empty, or tuples disagree in length; [`Error::MalformedTuple`] if a
    /// tuple repeats an object or references one `>= v`;
    /// [`Error::UnbalancedReplication`] / [`Error::UnbalancedPairs`] if the
    /// tuples do not form a balanced design.
    pub fn new(v: u16, tuples: Vec<Vec<u16>>) -> Result<BlockDesign, Error> {
        if v == 0 {
            return Err(Error::BadParameters {
                reason: "v must be positive".into(),
            });
        }
        let b = tuples.len();
        if b == 0 {
            return Err(Error::BadParameters {
                reason: "a design needs at least one tuple".into(),
            });
        }
        let k = tuples[0].len();
        if k == 0 || k > v as usize {
            return Err(Error::BadParameters {
                reason: format!("tuple size {k} outside 1..=v ({v})"),
            });
        }
        let mut elements = Vec::with_capacity(b * k);
        for (i, tuple) in tuples.iter().enumerate() {
            if tuple.len() != k {
                return Err(Error::MalformedTuple {
                    tuple: i,
                    reason: format!("length {} differs from first tuple's {}", tuple.len(), k),
                });
            }
            let mut seen = vec![false; v as usize];
            for &obj in tuple {
                if obj >= v {
                    return Err(Error::MalformedTuple {
                        tuple: i,
                        reason: format!("object {obj} out of range 0..{v}"),
                    });
                }
                if seen[obj as usize] {
                    return Err(Error::MalformedTuple {
                        tuple: i,
                        reason: format!("object {obj} repeated"),
                    });
                }
                seen[obj as usize] = true;
            }
            elements.extend_from_slice(tuple);
        }

        let params = Self::verify_balance(v, k as u16, &elements)?;
        Ok(BlockDesign {
            v,
            k: k as u16,
            elements,
            params,
        })
    }

    /// The complete block design: all `C(v, k)` combinations of `k` objects
    /// out of `v`, in lexicographic order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadParameters`] if `k` is zero, exceeds `v`, or the
    /// design would have more than 10 million tuples (such a table violates
    /// the paper's efficient-mapping criterion long before it exhausts
    /// memory).
    pub fn complete(v: u16, k: u16) -> Result<BlockDesign, Error> {
        construct::complete(v, k)
    }

    /// A design generated from base tuples by cyclic translation modulo
    /// `v`; see [`construct::cyclic`].
    ///
    /// # Errors
    ///
    /// Propagates verification failures from [`BlockDesign::new`]: a base
    /// family that is not a difference family yields an unbalanced design.
    pub fn cyclic(v: u16, base_tuples: &[(&[u16], u16)]) -> Result<BlockDesign, Error> {
        construct::cyclic(v, base_tuples)
    }

    /// Number of objects `v`.
    pub fn objects(&self) -> u16 {
        self.v
    }

    /// The verified parameters `(b, v, k, r, λ)`.
    pub fn params(&self) -> DesignParams {
        self.params
    }

    /// Iterates over the tuples in order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &[u16]> + '_ {
        self.elements.chunks_exact(self.k as usize)
    }

    /// The `i`-th tuple.
    ///
    /// # Panics
    ///
    /// Panics if `i >= b`.
    pub fn tuple(&self, i: usize) -> &[u16] {
        &self.elements[i * self.k as usize..(i + 1) * self.k as usize]
    }

    /// Checks replication and pair balance, returning the parameters.
    fn verify_balance(v: u16, k: u16, elements: &[u16]) -> Result<DesignParams, Error> {
        let b = (elements.len() / k as usize) as u64;
        let mut replication = vec![0u64; v as usize];
        // Pair counts in a triangular matrix indexed by (hi, lo).
        let mut pairs = vec![0u64; v as usize * v as usize];
        for tuple in elements.chunks_exact(k as usize) {
            for (i, &a) in tuple.iter().enumerate() {
                replication[a as usize] += 1;
                for &c in &tuple[i + 1..] {
                    let (lo, hi) = if a < c { (a, c) } else { (c, a) };
                    pairs[hi as usize * v as usize + lo as usize] += 1;
                }
            }
        }
        let r = replication[0];
        for (obj, &count) in replication.iter().enumerate() {
            if count != r {
                return Err(Error::UnbalancedReplication {
                    object: obj as u16,
                    count,
                    expected: r,
                });
            }
        }
        let mut lambda = None;
        if v > 1 && k > 1 {
            for hi in 1..v {
                for lo in 0..hi {
                    let count = pairs[hi as usize * v as usize + lo as usize];
                    match lambda {
                        None => lambda = Some(count),
                        Some(l) if l != count => {
                            return Err(Error::UnbalancedPairs {
                                pair: (lo, hi),
                                count,
                                expected: l,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        let lambda = lambda.unwrap_or(0);
        let params = DesignParams { b, v, k, r, lambda };
        // The two counting identities hold for every balanced design; if
        // they fail here the verifier itself is broken.
        debug_assert_eq!(params.b * params.k as u64, params.v as u64 * params.r);
        if v > 1 {
            debug_assert_eq!(
                params.r * (params.k as u64 - 1),
                params.lambda * (params.v as u64 - 1)
            );
        }
        Ok(params)
    }
}

impl fmt::Display for BlockDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "block design: {}", self.params)?;
        for (i, tuple) in self.tuples().enumerate() {
            writeln!(f, "  tuple {i}: {tuple:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_4_1_complete_design() {
        // The paper's Figure 4-1: b=5, v=5, k=4, r=4, λ=3.
        let d = BlockDesign::complete(5, 4).unwrap();
        let p = d.params();
        assert_eq!((p.b, p.v, p.k, p.r, p.lambda), (5, 5, 4, 4, 3), "{p}");
        let tuples: Vec<&[u16]> = d.tuples().collect();
        assert_eq!(
            tuples,
            vec![
                &[0, 1, 2, 3][..],
                &[0, 1, 2, 4],
                &[0, 1, 3, 4],
                &[0, 2, 3, 4],
                &[1, 2, 3, 4],
            ]
        );
    }

    #[test]
    fn counting_identities_hold() {
        for (v, k) in [(5u16, 4u16), (6, 3), (7, 3), (8, 4)] {
            let p = BlockDesign::complete(v, k).unwrap().params();
            assert_eq!(p.b * p.k as u64, p.v as u64 * p.r);
            assert_eq!(p.r * (p.k as u64 - 1), p.lambda * (p.v as u64 - 1));
        }
    }

    #[test]
    fn fano_plane_from_explicit_tuples() {
        let tuples = vec![
            vec![0, 1, 3],
            vec![1, 2, 4],
            vec![2, 3, 5],
            vec![3, 4, 6],
            vec![4, 5, 0],
            vec![5, 6, 1],
            vec![6, 0, 2],
        ];
        let d = BlockDesign::new(7, tuples).unwrap();
        let p = d.params();
        assert_eq!((p.b, p.v, p.k, p.r, p.lambda), (7, 7, 3, 3, 1));
        assert!(p.is_symmetric());
        assert!((p.alpha() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_repeated_object() {
        let err = BlockDesign::new(5, vec![vec![0, 0, 1]]).unwrap_err();
        assert!(matches!(err, Error::MalformedTuple { tuple: 0, .. }));
    }

    #[test]
    fn rejects_out_of_range_object() {
        let err = BlockDesign::new(3, vec![vec![0, 1, 3]]).unwrap_err();
        assert!(matches!(err, Error::MalformedTuple { .. }));
    }

    #[test]
    fn rejects_ragged_tuples() {
        let err = BlockDesign::new(5, vec![vec![0, 1], vec![0, 1, 2]]).unwrap_err();
        assert!(matches!(err, Error::MalformedTuple { tuple: 1, .. }));
    }

    #[test]
    fn rejects_unbalanced_replication() {
        // Object 0 in two tuples, object 3 in one.
        let err = BlockDesign::new(4, vec![vec![0, 1], vec![0, 2], vec![1, 3]]).unwrap_err();
        assert!(matches!(err, Error::UnbalancedReplication { .. }));
    }

    #[test]
    fn rejects_unbalanced_pairs() {
        // Every object appears twice, but pair (0,1) twice vs (0,2) zero.
        let err =
            BlockDesign::new(4, vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3]]).unwrap_err();
        assert!(matches!(err, Error::UnbalancedPairs { .. }));
    }

    #[test]
    fn rejects_empty_and_degenerate() {
        assert!(matches!(
            BlockDesign::new(0, vec![vec![]]),
            Err(Error::BadParameters { .. })
        ));
        assert!(matches!(
            BlockDesign::new(5, vec![]),
            Err(Error::BadParameters { .. })
        ));
        assert!(matches!(
            BlockDesign::new(5, vec![vec![]]),
            Err(Error::BadParameters { .. })
        ));
    }

    #[test]
    fn single_tuple_design_is_valid() {
        // k = v = 21, b = 1: the RAID 5 case expressed as a block design.
        let d = BlockDesign::complete(21, 21).unwrap();
        let p = d.params();
        assert_eq!((p.b, p.r, p.lambda), (1, 1, 1));
        assert_eq!(p.alpha(), 1.0);
    }

    #[test]
    fn tuple_accessor_matches_iterator() {
        let d = BlockDesign::complete(6, 3).unwrap();
        for (i, t) in d.tuples().enumerate() {
            assert_eq!(d.tuple(i), t);
        }
        assert_eq!(d.tuples().len(), 20);
    }

    #[test]
    fn display_contains_parameters() {
        let d = BlockDesign::complete(5, 4).unwrap();
        let s = d.to_string();
        assert!(s.contains("b=5"));
        assert!(s.contains("lambda=3"));
        assert!(s.contains("tuple 0"));
    }
}
