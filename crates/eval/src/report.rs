//! Structured experiment records for machine-readable exports.
//!
//! The experiment binaries print human tables; this module additionally
//! captures results as simple records that can be dumped as CSV for
//! plotting.

use std::fmt::Write as _;

/// One measured data point of an experiment series.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Experiment id (e.g. `"fig5"`).
    pub experiment: String,
    /// Series / method name (e.g. `"LCTC"`).
    pub series: String,
    /// X-axis label (e.g. `"|Q|=4"`).
    pub x: String,
    /// Metric name (e.g. `"time_s"`).
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

/// An append-only collection of records with CSV export.
#[derive(Clone, Debug, Default)]
pub struct Report {
    records: Vec<Record>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one data point.
    pub fn push(
        &mut self,
        experiment: impl Into<String>,
        series: impl Into<String>,
        x: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) {
        self.records.push(Record {
            experiment: experiment.into(),
            series: series.into(),
            x: x.into(),
            metric: metric.into(),
            value,
        });
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Renders the report as CSV (header + rows, comma-separated; fields
    /// are sanitized by replacing commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("experiment,series,x,metric,value\n");
        for r in &self.records {
            let clean = |s: &str| s.replace(',', ";");
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                clean(&r.experiment),
                clean(&r.series),
                clean(&r.x),
                clean(&r.metric),
                r.value
            );
        }
        out
    }

    /// Writes the CSV to a file.
    pub fn save_csv<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let mut r = Report::new();
        r.push("fig5", "LCTC", "|Q|=4", "time_s", 0.05);
        r.push("fig5", "BD", "|Q|=4", "time_s", 0.2);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "experiment,series,x,metric,value");
        assert!(lines[1].starts_with("fig5,LCTC,"));
        assert_eq!(r.records().len(), 2);
    }

    #[test]
    fn commas_are_sanitized() {
        let mut r = Report::new();
        r.push("a,b", "c", "d", "e", 1.0);
        assert!(r.to_csv().contains("a;b,c,d,e,1"));
    }

    #[test]
    fn save_csv_writes_file() {
        let mut r = Report::new();
        r.push("x", "y", "z", "m", 2.5);
        let path = std::env::temp_dir().join("ctc_report_test.csv");
        r.save_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("2.5"));
    }
}
