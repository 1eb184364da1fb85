//! Order statistics over timing samples: percentiles, the "ten samples
//! beyond" rule for the tail, and dispersion over five windows of a phase.

/// Windows a phase is cut into for the dispersion figure.
pub const WINDOWS: usize = 5;

/// Nearest-rank percentile of an ascending slice (`0.0 < p <= 1.0`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p).ceil() as usize).min(n)
}

/// The highest of p99 / p95 / p90 / p50 that still has at least ten samples
/// beyond it, with its value. It is printed beside the tail metric, and a
/// run whose open phase does not even support p95 is marked invalid.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let p = [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| samples_beyond(sorted.len(), p) >= 10)
        .unwrap_or(0.50);
    (p, percentile(sorted, p))
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median absolute deviation around the median.
pub fn mad(values: &[f64]) -> f64 {
    let centre = median_f64(&mut values.to_vec());
    let mut dev: Vec<f64> = values.iter().map(|v| (v - centre).abs()).collect();
    median_f64(&mut dev)
}

/// One verified operation as the load generator saw it. Times are
/// nanoseconds since the phase started.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
    pub result_bytes: u64,
    pub vo_bytes: u64,
}

/// What is printed beside every timing so "slower" can be told from
/// "noisier": count, minimum, median, p95, the highest supported tail, and
/// the MAD of the per-window medians.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub n: usize,
    pub min_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub tail_p: f64,
    pub tail_us: f64,
    pub mad5_us: f64,
}

fn window_of(done_ns: u64, phase_ns: u64) -> usize {
    ((done_ns as u128 * WINDOWS as u128 / phase_ns.max(1) as u128) as usize).min(WINDOWS - 1)
}

pub fn timing(samples: &[Sample], phase_ns: u64) -> Timing {
    let mut all: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    all.sort_unstable();
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
    for s in samples {
        windows[window_of(s.done_ns, phase_ns)].push(s.latency_ns);
    }
    let medians: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            percentile(w, 0.5) as f64 / 1e3
        })
        .collect();
    let (tail_p, tail_ns) = tail(&all);
    Timing {
        n: all.len(),
        min_us: all.first().copied().unwrap_or(0) as f64 / 1e3,
        p50_us: percentile(&all, 0.5) as f64 / 1e3,
        p95_us: percentile(&all, 0.95) as f64 / 1e3,
        tail_p,
        tail_us: tail_ns as f64 / 1e3,
        mad5_us: mad(&medians),
    }
}

/// Completed operations per second in each window of the phase.
pub fn window_rates(samples: &[Sample], phase_ns: u64) -> Vec<f64> {
    let mut counts = [0u64; WINDOWS];
    for s in samples {
        counts[window_of(s.done_ns, phase_ns)] += 1;
    }
    let window_s = phase_ns as f64 / 1e9 / WINDOWS as f64;
    counts.iter().map(|&c| c as f64 / window_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond -> p99 is supported.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail(&v), (0.99, 990));
        // One fewer and p99 has only nine beyond: fall back to p95.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail(&v[..999]).0, 0.95);
        // 200 samples support p95 exactly, 100 support p90, fewer only p50.
        assert_eq!(tail(&v[..200]).0, 0.95);
        assert_eq!(tail(&v[..199]).0, 0.90);
        assert_eq!(tail(&v[..100]).0, 0.90);
        assert_eq!(tail(&v[..99]).0, 0.50);
    }

    #[test]
    fn mad_and_windows() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        let samples: Vec<Sample> = (0..10u64)
            .map(|i| Sample {
                done_ns: i * 100,
                latency_ns: 1_000 * (i + 1),
                ..Sample::default()
            })
            .collect();
        let t = timing(&samples, 1_000);
        assert_eq!(t.n, 10);
        assert_eq!(t.min_us, 1.0);
        assert_eq!(t.p50_us, 5.0);
        // Window medians 1,3,5,7,9 us -> MAD 2.
        assert_eq!(t.mad5_us, 2.0);
        let rates = window_rates(&samples, 1_000);
        assert_eq!(rates.len(), WINDOWS);
        assert!(rates.iter().all(|&r| (r - 1e7).abs() < 1.0));
    }
}
