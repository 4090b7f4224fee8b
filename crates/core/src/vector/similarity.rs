//! The similarity metric (Definitions 7–9).

use crate::vector::{SamplingVector, SignatureVector};

/// Squared norm of the `*`-aware difference `V_d − V_s` (Definitions 8/9,
/// eq. 7): components where the sampling vector has no information (`*`)
/// contribute zero.
///
/// # Panics
///
/// Panics if the vectors have different dimensions (they index the same
/// canonical pair enumeration by construction; a mismatch is a logic bug).
pub fn difference_norm_squared(sampling: &SamplingVector, signature: &SignatureVector) -> f64 {
    assert_eq!(
        sampling.len(),
        signature.len(),
        "sampling/signature dimension mismatch: {} vs {}",
        sampling.len(),
        signature.len()
    );
    sampling
        .iter()
        .zip(signature.components().iter())
        .map(|(s, &g)| match s {
            Some(v) => {
                let d = v - g as f64;
                d * d
            }
            None => 0.0,
        })
        .sum()
}

/// Similarity `S = 1 / ‖V_d − V_s‖` (Definition 7).
///
/// An exact match (zero distance) yields `f64::INFINITY`, which orders
/// above every finite similarity — the paper's "identical with one and only
/// one face" ideal case.
///
/// ```
/// use fttt::vector::{similarity, SamplingVector, SignatureVector};
///
/// // The paper's Section-4.4 example: V_d = [-1,1,1,1,1,1] against f3's
/// // signature [-1,1,1,1,1,0] differs in one component ⟹ S = 1.
/// let v = SamplingVector::from_ternary(
///     vec![Some(-1), Some(1), Some(1), Some(1), Some(1), Some(1)]);
/// let f3 = SignatureVector::new(vec![-1, 1, 1, 1, 1, 0]);
/// assert_eq!(similarity(&v, &f3), 1.0);
/// ```
pub fn similarity(sampling: &SamplingVector, signature: &SignatureVector) -> f64 {
    let d2 = difference_norm_squared(sampling, signature);
    if d2 == 0.0 {
        f64::INFINITY
    } else {
        1.0 / d2.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(v: Vec<i8>) -> SignatureVector {
        SignatureVector::new(v)
    }

    #[test]
    fn exact_match_is_infinite() {
        let d = SamplingVector::from_ternary(vec![Some(-1), Some(1), Some(0)]);
        let s = sig(vec![-1, 1, 0]);
        assert_eq!(similarity(&d, &s), f64::INFINITY);
    }

    #[test]
    fn paper_section_4_example() {
        // V_d = [-1,1,1,1,1,1] vs signature of f3 = [-1,1,1,1,1,0]:
        // distance 1, similarity 1.
        let d = SamplingVector::from_ternary(vec![
            Some(-1),
            Some(1),
            Some(1),
            Some(1),
            Some(1),
            Some(1),
        ]);
        let s3 = sig(vec![-1, 1, 1, 1, 1, 0]);
        assert_eq!(similarity(&d, &s3), 1.0);
    }

    #[test]
    fn paper_fault_tolerance_example() {
        // Section 4.4.3: V_d = [1,1,1,-1,*,1] vs V_s(f8) = [1,1,1,0,0,0]:
        // diffs (0,0,0,−1,ignored,1) ⟹ ‖Δ‖ = √2, S = 1/√2.
        let d =
            SamplingVector::from_ternary(vec![Some(1), Some(1), Some(1), Some(-1), None, Some(1)]);
        let s8 = sig(vec![1, 1, 1, 0, 0, 0]);
        assert!((difference_norm_squared(&d, &s8) - 2.0).abs() < 1e-12);
        assert!((similarity(&d, &s8) - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn paper_extended_example_fig9() {
        // Extended V_d = [1/3,1,1,1,1,-1] against the six signatures of
        // Fig. 7; the paper reports S(f1) = 1.5 as the unique maximum.
        let d = SamplingVector::new(vec![
            Some(1.0 / 3.0),
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(-1.0),
        ]);
        let f1 = sig(vec![1, 1, 1, 1, 1, -1]);
        let f4 = sig(vec![0, 1, 1, 1, 1, 0]);
        let s1 = similarity(&d, &f1);
        let s4 = similarity(&d, &f4);
        assert!((s1 - 1.5).abs() < 1e-12, "S(f1) = {s1}");
        assert!((s4 - 0.9486832980505138).abs() < 1e-9, "S(f4) = {s4}");
        assert!(s1 > s4, "extension must break the tie in favour of f1");
    }

    #[test]
    fn all_stars_matches_everything_exactly() {
        // A fully faulted sampling vector carries no information: distance
        // zero to every signature (the matcher then falls back to ties).
        let d = SamplingVector::from_ternary(vec![None, None, None]);
        assert_eq!(similarity(&d, &sig(vec![1, -1, 0])), f64::INFINITY);
        assert_eq!(similarity(&d, &sig(vec![0, 0, 0])), f64::INFINITY);
    }

    #[test]
    fn more_disagreement_means_less_similarity() {
        let d = SamplingVector::from_ternary(vec![Some(1), Some(1), Some(1)]);
        let s_close = sig(vec![1, 1, 0]);
        let s_far = sig(vec![1, -1, -1]);
        assert!(similarity(&d, &s_close) > similarity(&d, &s_far));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let d = SamplingVector::from_ternary(vec![Some(1)]);
        let s = sig(vec![1, 0]);
        let _ = similarity(&d, &s);
    }
}
