//! Order statistics and the metric list a run prints.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by nearest rank; `0` when
/// empty. Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let idx = ((values.len() as f64 - 1.0) * p).round() as usize;
    values[idx.min(values.len() - 1)]
}

/// The median of `values`; `0` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Microseconds in a duration, with sub-microsecond digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Named metrics in print order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value recorded under `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The `metrics` object of the result line:
    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, json_number(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit `f64` carries (`NaN`/`inf` map to 0,
/// which JSON cannot spell).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut v), 51.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn metrics_serialize_with_units() {
        let mut m = Metrics::default();
        m.put("a_us", 1.5, "us");
        m.put("n", 3.0, "count");
        assert_eq!(
            m.to_json(),
            r#"{"a_us":{"value":1.5,"unit":"us"},"n":{"value":3.0,"unit":"count"}}"#
        );
        assert_eq!(m.get("n"), Some(3.0));
    }
}
