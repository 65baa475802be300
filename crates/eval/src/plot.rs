//! Minimal ASCII bar charts for the experiment binaries.
//!
//! The paper presents most results as plots; the experiment binaries print
//! tables plus, where a trend matters, one of these horizontal bar charts —
//! legible in a terminal and in markdown code blocks.

/// A labeled horizontal bar chart.
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    title: String,
    rows: Vec<(String, f64)>,
    log_scale: bool,
}

impl BarChart {
    /// Creates an empty chart with a title.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            rows: Vec::new(),
            log_scale: false,
        }
    }

    /// Switches to log10 bar lengths (for timing spreads across orders of
    /// magnitude, like the paper's log-scale time plots).
    pub fn log_scale(mut self) -> Self {
        self.log_scale = true;
        self
    }

    /// Adds one bar.
    pub fn bar(&mut self, label: impl Into<String>, value: f64) -> &mut Self {
        self.rows.push((label.into(), value));
        self
    }

    /// Renders with bars normalized to `width` characters.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(8);
        let transform = |v: f64| -> f64 {
            if self.log_scale {
                // Map value v > 0 to log10, clamped at a -6 floor.
                (v.max(1e-6)).log10() + 6.0
            } else {
                v.max(0.0)
            }
        };
        let max = self
            .rows
            .iter()
            .map(|&(_, v)| transform(v))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for (label, value) in &self.rows {
            let filled = ((transform(*value) / max) * width as f64).round() as usize;
            out.push_str(&format!(
                "{label:<label_w$}  {}{} {}\n",
                "█".repeat(filled.min(width)),
                "·".repeat(width - filled.min(width)),
                crate::tables::fmt_f(*value),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_proportional_bars() {
        let mut c = BarChart::new("test");
        c.bar("a", 10.0).bar("b", 5.0).bar("c", 0.0);
        let s = c.render(10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        let count = |l: &str| l.matches('█').count();
        assert_eq!(count(lines[1]), 10);
        assert_eq!(count(lines[2]), 5);
        assert_eq!(count(lines[3]), 0);
    }

    #[test]
    fn log_scale_compresses() {
        let mut c = BarChart::new("timings").log_scale();
        c.bar("fast", 0.001).bar("slow", 10.0);
        let s = c.render(20);
        let lines: Vec<&str> = s.lines().collect();
        let fast = lines[1].matches('█').count();
        let slow = lines[2].matches('█').count();
        assert!(slow > fast);
        assert!(fast > 0, "log floor keeps small values visible");
    }

    #[test]
    fn handles_empty_and_degenerate() {
        let c = BarChart::new("empty");
        assert_eq!(c.render(10).lines().count(), 1);
        let mut z = BarChart::new("zeros");
        z.bar("x", 0.0);
        assert!(z.render(10).contains('·'));
    }

    #[test]
    fn labels_are_aligned() {
        let mut c = BarChart::new("t");
        c.bar("short", 1.0).bar("a-very-long-label", 2.0);
        let s = c.render(10);
        let lines: Vec<&str> = s.lines().collect();
        let pos1 = lines[1].find('█').unwrap();
        let pos2 = lines[2].find('█').unwrap();
        assert_eq!(pos1, pos2);
    }
}
