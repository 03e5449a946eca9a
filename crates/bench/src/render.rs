//! Text rendering for experiment outputs, including replication error
//! bars.

use crate::experiments::FigureSeries;
use crate::simfig::ReplicatedSeries;
use rumor_metrics::{Align, SampleStats, Table};

/// Renders one figure's series set the way the paper's plots read: one
/// block per curve, points as `(F_aware, msgs/R_on[0])` rows.
pub fn render_figure(title: &str, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    for s in series {
        out.push_str(&format!(
            "\n-- {} (rounds: {}, total: {:.3} msgs/peer, awareness: {:.4}{})\n",
            s.label,
            s.rounds,
            s.total_per_peer,
            s.final_awareness,
            if s.died { ", DIED" } else { "" }
        ));
        let mut t = Table::new(vec!["F_aware".into(), "msgs/R_on[0]".into()]);
        t.align(0, Align::Right).align(1, Align::Right);
        for &(x, y) in &s.points {
            t.row(vec![format!("{x:.4}"), format!("{y:.3}")]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Renders a compact one-line-per-curve summary.
pub fn render_summary(title: &str, series: &[FigureSeries]) -> String {
    let mut t = Table::new(vec![
        "curve".into(),
        "msgs/peer".into(),
        "rounds".into(),
        "awareness".into(),
        "died".into(),
    ]);
    for i in 1..=3 {
        t.align(i, Align::Right);
    }
    for s in series {
        t.row(vec![
            s.label.clone(),
            format!("{:.3}", s.total_per_peer),
            s.rounds.to_string(),
            format!("{:.4}", s.final_awareness),
            if s.died { "yes" } else { "no" }.into(),
        ]);
    }
    format!("== {title} ==\n{}", t.render())
}

/// Formats a replicated metric as `mean ± ci95-half-width` (`± ?` when
/// `n < 2` leaves the dispersion unknowable) — the one cell format every
/// table and bin uses for Monte Carlo numbers.
pub fn mean_ci(stats: &SampleStats) -> String {
    let half = stats.ci95().half_width();
    if half.is_finite() {
        format!("{:.3} ± {:.3}", stats.mean(), half)
    } else {
        format!("{:.3} ± ?", stats.mean())
    }
}

/// Renders one replicated curve per row: every metric as
/// `mean ± ci95-half-width` over `n` replications.
pub fn render_replicated(title: &str, series: &[ReplicatedSeries]) -> String {
    let mut t = Table::new(vec![
        "curve".into(),
        "msgs/peer".into(),
        "rounds".into(),
        "awareness".into(),
        "died".into(),
        "n".into(),
    ]);
    for i in 1..6 {
        t.align(i, Align::Right);
    }
    for s in series {
        t.row(vec![
            s.label.clone(),
            mean_ci(&s.total_per_peer),
            mean_ci(&s.rounds),
            mean_ci(&s.final_awareness),
            format!("{:.0}%", s.died_fraction * 100.0),
            s.n.to_string(),
        ]);
    }
    format!("== {title} ==\n{}", t.render())
}

/// Draws textual error bars for one metric across replicated curves: a
/// shared axis from the smallest to the largest observed value, each
/// curve's Student-t 95% interval as `[───]` with `•` at the mean.
pub fn render_error_bars(
    title: &str,
    series: &[ReplicatedSeries],
    metric: impl Fn(&ReplicatedSeries) -> &SampleStats,
) -> String {
    const WIDTH: usize = 48;
    let stats: Vec<&SampleStats> = series.iter().map(&metric).collect();
    let axis_lo = stats.iter().map(|s| s.min()).fold(f64::INFINITY, f64::min);
    let axis_hi = stats
        .iter()
        .map(|s| s.max())
        .fold(f64::NEG_INFINITY, f64::max);
    let mut out = format!("== {title} ==\n");
    if series.is_empty() || !axis_lo.is_finite() || !axis_hi.is_finite() {
        return out;
    }
    let span = (axis_hi - axis_lo).max(f64::EPSILON);
    let pos = |x: f64| -> usize {
        (((x - axis_lo) / span) * (WIDTH - 1) as f64)
            .round()
            .clamp(0.0, (WIDTH - 1) as f64) as usize
    };
    let label_width = series.iter().map(|s| s.label.len()).max().unwrap_or(0);
    for s in series {
        let stats = metric(s);
        let ci = stats.ci95();
        let (lo, hi) = if ci.half_width().is_finite() {
            (
                pos(ci.lower.max(stats.min())),
                pos(ci.upper.min(stats.max())),
            )
        } else {
            (pos(stats.min()), pos(stats.max()))
        };
        let mut bar = vec![' '; WIDTH];
        for cell in bar.iter_mut().take(hi + 1).skip(lo) {
            *cell = '─';
        }
        bar[lo] = '[';
        bar[hi] = ']';
        bar[pos(stats.mean())] = '•';
        out.push_str(&format!(
            "{:<label_width$} {} {}\n",
            s.label,
            bar.into_iter().collect::<String>(),
            mean_ci(stats),
        ));
    }
    out.push_str(&format!(
        "{:<label_width$} axis: {axis_lo:.3} … {axis_hi:.3}\n",
        ""
    ));
    out
}

/// Serialises any experiment payload to pretty JSON.
///
/// Serialization goes through the crate-local [`crate::json`] emitter
/// (the offline `serde` shim provides no framework); the output matches
/// what `serde_json::to_string_pretty` would produce for these types.
pub fn to_json<T: crate::json::ToJson>(value: &T) -> String {
    value.to_json().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FigureSeries> {
        vec![FigureSeries {
            label: "curve-a".into(),
            points: vec![(0.1, 1.0), (0.9, 3.0)],
            rounds: 2,
            died: false,
            total_per_peer: 3.0,
            final_awareness: 0.9,
        }]
    }

    #[test]
    fn figure_rendering_contains_points_and_label() {
        let text = render_figure("Fig. X", &sample());
        assert!(text.contains("Fig. X"));
        assert!(text.contains("curve-a"));
        assert!(text.contains("0.9000"));
        assert!(text.contains("3.000"));
    }

    #[test]
    fn summary_is_one_row_per_curve() {
        let text = render_summary("Fig. X", &sample());
        assert_eq!(text.lines().count(), 4, "title + header + separator + row");
    }

    fn replicated_sample() -> Vec<ReplicatedSeries> {
        vec![
            ReplicatedSeries {
                label: "curve-a".into(),
                n: 4,
                total_per_peer: SampleStats::of(&[1.0, 2.0, 3.0, 4.0]),
                rounds: SampleStats::of(&[5.0, 6.0, 7.0, 8.0]),
                final_awareness: SampleStats::of(&[0.9, 0.92, 0.94, 0.96]),
                died_fraction: 0.25,
            },
            ReplicatedSeries {
                label: "curve-b".into(),
                n: 4,
                total_per_peer: SampleStats::of(&[10.0, 11.0, 12.0, 13.0]),
                rounds: SampleStats::of(&[5.0, 5.0, 5.0, 5.0]),
                final_awareness: SampleStats::of(&[1.0, 1.0, 1.0, 1.0]),
                died_fraction: 0.0,
            },
        ]
    }

    #[test]
    fn replicated_summary_shows_ci_and_n() {
        let text = render_replicated("Rep", &replicated_sample());
        assert!(text.contains("curve-a"));
        assert!(text.contains("±"), "must render the CI half-width: {text}");
        assert!(text.contains("25%"), "died fraction as a percentage");
        assert!(text.lines().count() == 5, "title + header + rule + 2 rows");
    }

    #[test]
    fn error_bars_share_one_axis() {
        let text = render_error_bars("Bars", &replicated_sample(), |s| &s.total_per_peer);
        assert!(text.contains("curve-a") && text.contains("curve-b"));
        assert!(text.contains('•'), "mean marker");
        assert!(text.contains('[') && text.contains(']'), "CI brackets");
        assert!(text.contains("axis: 1.000 … 13.000"), "{text}");
        // curve-b sits right of curve-a on the shared axis.
        let a_pos = text
            .lines()
            .find(|l| l.starts_with("curve-a"))
            .and_then(|l| l.find('•'))
            .unwrap();
        let b_pos = text
            .lines()
            .find(|l| l.starts_with("curve-b"))
            .and_then(|l| l.find('•'))
            .unwrap();
        assert!(a_pos < b_pos, "axis ordering: {text}");
    }

    #[test]
    fn error_bars_handle_empty_input() {
        let text = render_error_bars("Empty", &[], |s| &s.total_per_peer);
        assert_eq!(text, "== Empty ==\n");
    }

    #[test]
    fn json_contains_all_fields_and_balances() {
        let json = to_json(&sample());
        for key in [
            "label",
            "points",
            "rounds",
            "died",
            "total_per_peer",
            "final_awareness",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}:\n{json}"
            );
        }
        assert!(json.contains("curve-a"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
    }
}
