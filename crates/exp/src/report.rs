//! Rendering figure data as text tables, CSV and markdown, one panel or
//! column group per metric the figure declares.

use std::fmt::Write as _;

use crate::figures::FigureData;

/// Series names, taken from the first row (every row lists the same
/// series in the same order).
fn series_names(fig: &FigureData) -> Vec<&str> {
    fig.rows
        .first()
        .map(|r| r.series.iter().map(|s| s.name.as_str()).collect())
        .unwrap_or_default()
}

/// Renders a figure as paper-style text tables: one panel per declared
/// metric, lettered (a), (b), … and headed `label [unit]`.
pub fn render_text(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", fig.id, fig.title);
    let names = series_names(fig);
    for (m, (metric, letter)) in fig.metrics.iter().zip('a'..).enumerate() {
        let _ = writeln!(out, "\n({letter}) {} [{}]", metric.label, metric.unit);
        let _ = write!(out, "{:>12}", fig.x_label);
        for n in &names {
            let _ = write!(out, " | {n:>20}");
        }
        let _ = writeln!(out);
        for row in &fig.rows {
            let _ = write!(out, "{:>12}", trim_float(row.x));
            for s in &row.series {
                let _ = write!(out, " | {:>20}", s.values[m].display_ci(metric.decimals));
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Renders a figure as CSV: one row per (x, series) pair, with
/// `{key}_mean,{key}_std,{key}_ci95` columns per declared metric.
pub fn render_csv(fig: &FigureData) -> String {
    let mut out = String::from("figure,x,algorithm");
    for m in fig.metrics {
        let _ = write!(out, ",{0}_mean,{0}_std,{0}_ci95", m.key);
    }
    out.push_str(",seeds\n");
    for row in &fig.rows {
        for s in &row.series {
            let name = csv_field(&s.name);
            let _ = write!(out, "{},{},{name}", fig.id, trim_float(row.x));
            for v in &s.values {
                let _ = write!(out, ",{:.6},{:.6},{:.6}", v.mean, v.std_dev, v.ci95);
            }
            let _ = writeln!(out, ",{}", s.values.first().map_or(0, |v| v.n));
        }
    }
    out
}

/// Renders a figure as a GitHub-flavoured markdown section: one combined
/// table with a `{series} {key}` column per (metric, series) pair, cells
/// as in [`render_text`] — the format EXPERIMENTS.md uses, so regenerated
/// data can be pasted straight in.
pub fn render_markdown(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {} — {}\n", fig.id, fig.title);
    let names = series_names(fig);
    let _ = write!(out, "| {} |", fig.x_label);
    for m in fig.metrics {
        for n in &names {
            let _ = write!(out, " {} {} |", n.replace('|', "\\|"), m.key);
        }
    }
    let _ = writeln!(out);
    let _ = write!(out, "|--:|");
    for _ in 0..fig.metrics.len() * names.len() {
        let _ = write!(out, "---:|");
    }
    let _ = writeln!(out);
    for row in &fig.rows {
        let _ = write!(out, "| {} |", trim_float(row.x));
        for (m, metric) in fig.metrics.iter().enumerate() {
            for s in &row.series {
                let _ = write!(out, " {} |", s.values[m].display_ci(metric.decimals));
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Checks a figure against its declared schema: no double spaces in the
/// title and labels, one [`crate::Summary`] per declared metric in every
/// series, and as many cells in every [`render_markdown`] table row as in
/// its header. The figure tests run it on every figure they regenerate.
pub fn check_schema(fig: &FigureData) -> Result<(), String> {
    let labels = fig.metrics.iter().flat_map(|m| [m.label, m.unit]);
    let mut texts = [&*fig.title, &*fig.x_label].into_iter().chain(labels);
    if let Some(text) = texts.find(|t| t.contains("  ")) {
        return Err(format!("{}: double space in {text:?}", fig.id));
    }
    let want = fig.metrics.len();
    let mut series = fig.rows.iter().flat_map(|r| &r.series);
    if let Some(s) = series.find(|s| s.values.len() != want) {
        let (name, n) = (&s.name, s.values.len());
        return Err(format!(
            "{}: {name:?} has {n} values for {want} metrics",
            fig.id
        ));
    }
    let md = render_markdown(fig);
    let cells = |line: &str| line.matches('|').count() - line.matches("\\|").count();
    let mut table = md.lines().filter(|l| l.starts_with('|')).map(cells);
    let header = table.next().unwrap_or(0);
    match table.find(|&n| n != header) {
        Some(n) => Err(format!(
            "{}: a markdown row has {n} bars, header {header}",
            fig.id
        )),
        None => Ok(()),
    }
}

/// Renders an `edgerep-obs` registry snapshot as CSV: one row per metric,
/// with histogram rows carrying count/mean/p50/p95/max and scalar rows
/// carrying their value in the `value` column. Written by `repro --csv`
/// next to each figure's data so runner timings, `parallel.utilization`,
/// and admission-reject breakdowns land in the same artifact directory.
pub fn render_metrics_csv(snap: &edgerep_obs::Snapshot) -> String {
    let mut out = String::from("kind,name,value,count,mean,p50,p95,max\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "counter,{name},{v},,,,,");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "gauge,{name},{v:.6},,,,,");
    }
    for h in &snap.histograms {
        let _ = writeln!(
            out,
            "histogram,{},,{},{:.3},{},{},{}",
            h.name, h.count, h.mean, h.p50, h.p95, h.max
        );
    }
    out
}

/// Quotes a CSV field that holds a comma or quote (e.g. `EC(2,1)`).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureRow, Metric, Series, PAPER_METRICS};

    fn sample_fig() -> FigureData {
        FigureData {
            id: "figX".into(),
            title: "sample".into(),
            x_label: "K".into(),
            metrics: &PAPER_METRICS,
            rows: vec![FigureRow {
                x: 2.0,
                series: vec![
                    Series::of("Appro-G", [[10.0, 0.5], [12.0, 0.6]]),
                    Series::of("Greedy-G", [[3.0, 0.2], [5.0, 0.3]]),
                ],
            }],
            timeseries: None,
        }
    }

    const SOLVE_MS: Metric = Metric::new("solve_ms", "solve time", "ms", 1);

    /// Three declared metrics and a series name with a markdown pipe.
    fn three_metric_fig() -> FigureData {
        static METRICS: [Metric; 3] = [PAPER_METRICS[0], PAPER_METRICS[1], SOLVE_MS];
        FigureData {
            id: "figY".into(),
            title: "three metrics".into(),
            x_label: "R".into(),
            metrics: &METRICS,
            rows: vec![FigureRow {
                x: 4.0,
                series: vec![Series::of(
                    "gap | speedup",
                    [[1.0, 0.5, 20.0], [3.0, 0.7, 40.0]],
                )],
            }],
            timeseries: None,
        }
    }

    #[test]
    fn every_declared_metric_is_rendered_with_its_unit() {
        let fig = three_metric_fig();
        let text = render_text(&fig);
        assert!(text.contains("\n(c) solve time [ms]\n"), "{text}");
        assert!(text.contains("30.0 ± 19.6"), "{text}");

        let csv = render_csv(&fig);
        assert_eq!(
            csv.lines().next().unwrap(),
            "figure,x,algorithm,volume_mean,volume_std,volume_ci95,throughput_mean,\
             throughput_std,throughput_ci95,solve_ms_mean,solve_ms_std,solve_ms_ci95,seeds"
        );
        assert_eq!(csv.lines().nth(1).unwrap().split(',').count(), 13);

        let md = render_markdown(&fig);
        assert!(md.contains("| gap \\| speedup solve_ms |"), "{md}");
        assert_eq!(check_schema(&fig), Ok(()));
    }

    #[test]
    fn schema_check_names_what_is_wrong() {
        let mut fig = three_metric_fig();
        fig.title = "broken  continuation".into();
        assert!(check_schema(&fig).unwrap_err().contains("double space"));

        let mut fig = three_metric_fig();
        fig.rows[0].series[0].values.pop();
        assert!(check_schema(&fig)
            .unwrap_err()
            .contains("2 values for 3 metrics"));
    }

    #[test]
    fn text_has_both_panels_and_all_algorithms() {
        let text = render_text(&sample_fig());
        assert!(text.contains("(a) volume"));
        assert!(text.contains("(b) system throughput"));
        assert!(text.contains("Appro-G"));
        assert!(text.contains("Greedy-G"));
        assert!(text.contains("11.00")); // volume mean
    }

    #[test]
    fn csv_shape() {
        let csv = render_csv(&sample_fig());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 algorithms
        assert!(lines[0].starts_with("figure,x,algorithm"));
        assert!(lines[1].starts_with("figX,2,Appro-G,"));
        assert_eq!(lines[1].split(',').count(), 10);
    }

    #[test]
    fn markdown_table_shape() {
        let md = render_markdown(&sample_fig());
        let lines: Vec<&str> = md.lines().collect();
        assert!(lines[0].starts_with("## figX"));
        // Header + separator + one data row.
        let table: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with('|'))
            .copied()
            .collect();
        assert_eq!(table.len(), 3);
        // 1 x column + 2 vol + 2 thr = 5 content columns -> 6 pipes+1.
        assert_eq!(table[0].matches('|').count(), 6);
        assert!(table[0].contains(" Appro-G volume |"));
        assert!(table[0].contains(" Greedy-G throughput |"));
        assert!(table[2].contains("11.00 ±"));
        assert!(table[2].contains("0.550 ± 0.098"));
    }

    #[test]
    fn integer_x_renders_without_decimals() {
        assert_eq!(trim_float(5.0), "5");
        assert_eq!(trim_float(2.5), "2.5");
    }

    fn empty_fig() -> FigureData {
        FigureData {
            id: "figE".into(),
            title: "empty".into(),
            x_label: "K".into(),
            metrics: &PAPER_METRICS,
            rows: vec![],
            timeseries: None,
        }
    }

    #[test]
    fn text_golden_output() {
        // Full golden string: any rendering change must be reviewed here.
        let expected = "\
figX — sample

(a) volume of datasets demanded by admitted queries [GB]
           K |              Appro-G |             Greedy-G
           2 |        11.00 ± 1.96 |         4.00 ± 1.96

(b) system throughput [admitted/total]
           K |              Appro-G |             Greedy-G
           2 |        0.550 ± 0.098 |        0.250 ± 0.098
";
        let got = render_text(&sample_fig());
        // display_ci width can vary with locale-independent float
        // formatting; compare structure line by line instead of bytes.
        let exp_lines: Vec<&str> = expected.lines().collect();
        let got_lines: Vec<&str> = got.lines().collect();
        assert_eq!(got_lines.len(), exp_lines.len(), "{got}");
        for (g, e) in got_lines.iter().zip(&exp_lines) {
            assert_eq!(
                g.split_whitespace().collect::<Vec<_>>(),
                e.split_whitespace().collect::<Vec<_>>(),
                "line mismatch in:\n{got}"
            );
        }
    }

    #[test]
    fn empty_rows_render_headers_only() {
        let text = render_text(&empty_fig());
        assert!(text.contains("figE — empty"));
        assert!(text.contains("(a) volume"));
        assert!(text.contains("(b) system throughput"));
        // No algorithm names, no data rows: every remaining line is a
        // header or the bare x-label column.
        assert!(!text.contains('±'));

        let csv = render_csv(&empty_fig());
        assert_eq!(csv.lines().count(), 1, "header only: {csv}");
        assert!(csv.starts_with("figure,x,algorithm"));

        let md = render_markdown(&empty_fig());
        let table: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(table.len(), 2, "header + separator only: {md}");
        assert_eq!(table[0], "| K |");
    }

    #[test]
    fn metrics_csv_renders_counters_gauges_and_histograms() {
        let snap = edgerep_obs::Snapshot {
            counters: vec![("admission.rejected.deadline".into(), 4u64)],
            gauges: vec![("parallel.utilization".into(), 0.75f64)],
            histograms: vec![edgerep_obs::HistogramSnapshot {
                name: "runner.point_us".into(),
                count: 2,
                sum: 3000,
                mean: 1500.0,
                p50: 1023,
                p95: 2047,
                max: 1800,
            }],
        };
        let csv = render_metrics_csv(&snap);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,value,count,mean,p50,p95,max");
        assert_eq!(lines[1], "counter,admission.rejected.deadline,4,,,,,");
        assert_eq!(lines[2], "gauge,parallel.utilization,0.750000,,,,,");
        assert_eq!(
            lines[3],
            "histogram,runner.point_us,,2,1500.000,1023,2047,1800"
        );
        assert_eq!(lines.len(), 4);
        // Every row has the same column count as the header.
        for l in &lines {
            assert_eq!(l.split(',').count(), 8, "{l}");
        }
    }

    #[test]
    fn csv_golden_row_values() {
        let csv = render_csv(&sample_fig());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[1],
            "figX,2,Appro-G,11.000000,1.414214,1.960000,0.550000,0.070711,0.098000,2"
        );
        assert_eq!(
            lines[2],
            "figX,2,Greedy-G,4.000000,1.414214,1.960000,0.250000,0.070711,0.098000,2"
        );
    }
}
