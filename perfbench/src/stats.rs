//! Order statistics over latency samples.

/// The nearest-rank `q`-quantile of `samples` (sorted in place), or 0 for
/// no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Requests an open-loop slice is sized for when its median is taken.
pub const P50_SAMPLES: usize = 100;

/// Fewest requests behind each 99th percentile, so that it has ten
/// samples beyond it.
pub const P99_SAMPLES: usize = 1000;
