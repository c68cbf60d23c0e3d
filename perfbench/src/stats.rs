//! Pure arithmetic behind the reported numbers: medians, the tail
//! percentile rule and span self time. Kept free of I/O and clocks so the
//! unit tests below pin it exactly.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile chosen by [`tail`], with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub n: usize,
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: u32, n: usize) -> usize {
    ((pct as usize * n).div_ceil(100)).max(1)
}

/// Nearest-rank percentile `pct` of ascending `sorted`; `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(pct, sorted.len()) - 1])
}

/// The highest whole percentile at or below `target` that still has at
/// least [`MIN_BEYOND`] samples beyond it; `None` when no percentile does
/// (fewer than `MIN_BEYOND + 1` samples).
#[must_use]
pub fn tail(sorted: &[f64], target: u32) -> Option<Tail> {
    let n = sorted.len();
    (1..=target).rev().find_map(|pct| {
        let rank = nearest_rank(pct, n);
        let beyond = n.checked_sub(rank)?;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
            beyond,
            n,
        })
    })
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Self time of a parent span `[start, end)`: its duration minus the part
/// of it that the union of `children` covers. Children may overlap each
/// other or stick out of the parent; only covered parent time counts once.
#[must_use]
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 99).expect("1000 samples carry a p99");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99, 990.0, 10, 1000));
    }

    #[test]
    fn tail_steps_down_when_p99_has_too_few_samples_beyond() {
        // 999 samples: p99 is rank 990 with 9 beyond, so p98 is reported.
        let t = tail(&ramp(999), 99).expect("p98 has 19 beyond");
        assert_eq!((t.pct, t.value, t.beyond), (98, 980.0, 19));
        // 100 samples: rank 90 is the last with ten beyond.
        let t = tail(&ramp(100), 99).expect("p90 has 10 beyond");
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
    }

    #[test]
    fn tail_is_none_without_eleven_samples() {
        assert_eq!(tail(&ramp(10), 99), None);
        assert_eq!(tail(&[], 99), None);
        let t = tail(&ramp(11), 99).expect("rank 1 leaves ten beyond");
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&ramp(4), 50), Some(2.0));
        assert_eq!(percentile(&ramp(5), 50), Some(3.0));
        assert_eq!(percentile(&ramp(5), 100), Some(5.0));
        assert_eq!(percentile(&ramp(5), 1), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (35, 50)]), 50);
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }
}
