//! Percentiles and span self-time arithmetic.

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (the method of numpy's default and of Python's
/// `statistics.quantiles(..., method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One recorded interval. `parent` indexes the enclosing span in the same
/// list; roots have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of it that the union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Ten values: the 90th percentile sits between ranks 8 and 9.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
            // Overlaps its sibling and sticks out of the parent: only the
            // uncovered, in-parent part counts.
            span("c", 60, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 20 - 30 - 30, 20, 30 - 5, 5, 60]);
        // Self times of a properly nested tree sum to the root's wall time.
        let nested = &spans[..4];
        assert_eq!(self_times(nested).iter().sum::<u64>(), 100);
    }
}
