//! Order statistics over one run's samples.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count). `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile that has at least ten samples beyond it:
/// `(percentile, value)`, or `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 30.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert_eq!(p, 75.0);
        assert!(tail(&v[..10]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
