//! Order statistics and the result ledger.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; `None` when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Ledger {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Sample counts behind each metric, printed in the report.
    pub samples: BTreeMap<String, usize>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.to_string(), (value, unit));
        self.samples.insert(name.to_string(), samples);
    }

    /// Median of `samples` scaled by `scale` (e.g. seconds → ms).
    pub fn put_median(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        if let Some(m) = median(samples) {
            self.put(name, m * scale, unit, samples.len());
        }
    }

    pub fn put_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(v) = percentile(samples, p) {
            self.put(name, v * scale, unit, samples.len());
        }
    }
}

/// Formats a float as JSON with all its digits (non-finite becomes 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
