//! Benchmarks and experiment drivers for the Arcade reproduction.
//!
//! Each `exp_*` binary regenerates one table or figure of the paper (see
//! the experiment index in `DESIGN.md`); the plain-harness benches under
//! `benches/` measure the runtime of the pipeline stages with the
//! dependency-free [`bench`](fn@bench) helper. Shared helpers live here.

use arcade::ast::SystemDef;
use arcade::engine::{aggregate, Aggregation, EngineOptions};
use arcade::error::ArcadeError;
use arcade::model::SystemModel;

/// Builds and aggregates `def` with the given options, returning the
/// aggregation result.
///
/// # Errors
///
/// Propagates any model/engine error.
pub fn run_engine(def: &SystemDef, opts: &EngineOptions) -> Result<Aggregation, ArcadeError> {
    let model = SystemModel::build(def)?;
    aggregate(&model, opts)
}

/// Formats a float in the paper's style (6 decimals).
pub fn fmt6(x: f64) -> String {
    format!("{x:.6}")
}

/// Times `f` over `iters` iterations after one warm-up run and prints a
/// `name  best  mean` line (dependency-free stand-in for a bench harness).
/// Returns the mean per-iteration time in seconds.
pub fn bench<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let iters = iters.max(1);
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let one = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(one.elapsed().as_secs_f64());
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<42} best {:>10}  mean {:>10}",
        fmt_time(best),
        fmt_time(mean)
    );
    mean
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file first, which is then renamed over the target. A reader
/// (or an interrupted run) never observes a half-written bench file.
///
/// # Errors
///
/// Any I/O error from writing or renaming.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

/// A plain-text table writer for experiment outputs.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["availability".into(), "0.999997".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("0.999997"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn fmt6_rounds() {
        assert_eq!(fmt6(0.4020184), "0.402018");
    }
}
