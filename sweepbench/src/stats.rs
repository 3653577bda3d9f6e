//! Pure helpers: order statistics, span self time, metric digests and the
//! seeded shard order. They do no I/O, so the unit tests pin them exactly.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `pct`-th percentile of `xs` by nearest rank, or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it (p90 needs 100 samples).
pub fn percentile(xs: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let rank = (pct * xs.len()).div_ceil(100).max(1);
    if xs.len() - rank.min(xs.len()) < TAIL_SAMPLES {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// The tail shard latency of one sweep: its p90 when the sweep has
/// enough shards for one, otherwise its slowest shard (an upper bound on
/// the p90 that cannot be resolved).
pub fn tail(xs: &[f64]) -> f64 {
    percentile(xs, 90).unwrap_or_else(|| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// A span's self time: its duration minus the part its children cover.
/// The children are nested inside the span and do not overlap.
pub fn self_time(total: f64, children: impl IntoIterator<Item = f64>) -> f64 {
    total - children.into_iter().sum::<f64>()
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload does not use).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a digest of a shard's deterministic metrics: every name and the
/// exact bits of every value, in order.
pub fn digest(metrics: &[(String, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, value) in metrics {
        eat(name.as_bytes());
        eat(&[0xff]);
        eat(&value.to_bits().to_le_bytes());
    }
    h
}

/// Parses an expected-digest file: one `<shard id> <16 hex digits>` per
/// line; blank lines and `#` comments are skipped.
pub fn parse_digests(text: &str) -> Result<Vec<(String, u64)>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (id, hex) = l
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed line {l:?}"))?;
            let d = u64::from_str_radix(hex, 16).map_err(|e| format!("{l:?}: {e}"))?;
            Ok((id.to_string(), d))
        })
        .collect()
}

/// Shard execution order for a seed: seed 0 keeps preset order, any other
/// seed is a Fisher–Yates shuffle driven by splitmix64.
pub fn shard_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90), None);
        assert_eq!(percentile(&xs[..20], 50), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50), None);
        assert_eq!(percentile(&[], 90), None);
    }

    #[test]
    fn tail_falls_back_to_the_slowest_shard() {
        let many: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(tail(&many), 99.0);
        assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sweep_overhead_and_self_time_subtract_children() {
        // run_sweep took 10 s, its three shards 2 + 3 + 4 s: 1 s is the
        // orchestration's own (checkpoints, telemetry, bookkeeping).
        assert_eq!(self_time(10.0, [2.0, 3.0, 4.0]), 1.0);
        // A co-simulation span of 3 s whose report attributes 1.5 s to
        // the simulator and 1.25 s to the solver keeps 0.25 s of its own.
        assert_eq!(self_time(3.0, [1.5, 1.25]), 0.25);
        assert_eq!(self_time(0.5, []), 0.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn one_ulp_changes_the_digest() {
        let metrics = vec![("ipc".to_string(), 1.25), ("peak_k".to_string(), 360.9)];
        let d = digest(&metrics);
        for i in 0..metrics.len() {
            for bump in [1i64, -1] {
                let mut m = metrics.clone();
                m[i].1 = f64::from_bits((m[i].1.to_bits() as i64 + bump) as u64);
                assert_ne!(digest(&m), d, "one ulp on {} went unseen", m[i].0);
            }
        }
        let mut renamed = metrics.clone();
        renamed[0].0 = "ipns".into();
        assert_ne!(digest(&renamed), d);
        let mut swapped = metrics.clone();
        swapped.swap(0, 1);
        assert_ne!(digest(&swapped), d);
    }

    #[test]
    fn digest_files_round_trip() {
        let text =
            "# comment\nfig8/gzip-like/Base 00000000000000ff\n\ndtm/3D/dvfs 0123456789abcdef\n";
        assert_eq!(
            parse_digests(text).unwrap(),
            vec![
                ("fig8/gzip-like/Base".into(), 0xff),
                ("dtm/3D/dvfs".into(), 0x0123_4567_89ab_cdef)
            ]
        );
        assert!(parse_digests("no-digest-here").is_err());
        assert!(parse_digests("id zz").is_err());
    }

    #[test]
    fn seed_zero_is_preset_order_and_others_permute() {
        assert_eq!(shard_order(5, 0), vec![0, 1, 2, 3, 4]);
        for seed in 1..20 {
            let mut order = shard_order(110, seed);
            assert_eq!(order, shard_order(110, seed), "same seed, same order");
            order.sort_unstable();
            assert_eq!(order, (0..110).collect::<Vec<_>>());
        }
        assert_ne!(shard_order(110, 1), shard_order(110, 2));
    }
}
