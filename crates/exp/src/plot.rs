//! Self-contained SVG line charts for figure data.
//!
//! The paper presents its evaluation as line charts; [`figure_to_svg`]
//! renders one declared metric of a [`FigureData`] the same way — one
//! polyline per series, 95%-CI error bars, axis ticks, and a legend —
//! with no dependencies beyond `std`. The `repro` binary writes one chart
//! per metric next to the CSVs (`--svg DIR`, `{id}_{key}.svg`), so a
//! reproduction run produces directly comparable pictures.

use std::fmt::Write as _;

use crate::figures::FigureData;

/// Chart geometry and palette.
#[derive(Debug, Clone)]
pub struct PlotStyle {
    /// Total width in pixels.
    pub width: f64,
    /// Total height in pixels.
    pub height: f64,
    /// Margin around the plotting area (left, right, top, bottom).
    pub margins: (f64, f64, f64, f64),
    /// Series colors, cycled.
    pub palette: Vec<&'static str>,
}

impl Default for PlotStyle {
    fn default() -> Self {
        Self {
            width: 640.0,
            height: 420.0,
            margins: (70.0, 20.0, 50.0, 55.0),
            palette: vec!["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"],
        }
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// "Nice" tick step covering `span` with about `target` intervals.
fn nice_step(span: f64, target: usize) -> f64 {
    debug_assert!(span > 0.0);
    let raw = span / target as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let nice = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * mag
}

/// Renders metric `m` (an index into [`FigureData::metrics`]) of a figure
/// as a standalone SVG document.
pub fn figure_to_svg(fig: &FigureData, m: usize, style: &PlotStyle) -> String {
    let (ml, mr, mt, mb) = style.margins;
    let plot_w = style.width - ml - mr;
    let plot_h = style.height - mt - mb;
    assert!(plot_w > 0.0 && plot_h > 0.0, "margins exceed the canvas");

    let metric = &fig.metrics[m];
    let axis_label = format!("{} [{}]", metric.label, metric.unit);
    // Collect series: (name, points (x, mean, ci)).
    let names: Vec<String> = fig
        .rows
        .first()
        .map(|r| r.series.iter().map(|s| s.name.clone()).collect())
        .unwrap_or_default();
    let series: Vec<Vec<(f64, f64, f64)>> = (0..names.len())
        .map(|si| {
            fig.rows
                .iter()
                .map(|row| {
                    let v = &row.series[si].values[m];
                    (row.x, v.mean, v.ci95)
                })
                .collect()
        })
        .collect();

    // Data ranges. The y axis starts at 0, the paper's convention, unless
    // a mean is negative (a net benefit, say): then it reaches down to the
    // lowest whisker. Whiskers of non-negative data stop at 0.
    let x_min = fig.rows.first().map_or(0.0, |r| r.x);
    let x_max = fig.rows.last().map_or(1.0, |r| r.x);
    let x_span = (x_max - x_min).max(1e-9);
    let y_max = series
        .iter()
        .flatten()
        .map(|&(_, m, ci)| m + ci)
        .fold(1e-9_f64, f64::max)
        * 1.08;
    let y_min = if series.iter().flatten().any(|&(_, m, _)| m < 0.0) {
        series
            .iter()
            .flatten()
            .map(|&(_, m, ci)| m - ci)
            .fold(0.0_f64, f64::min)
            * 1.08
    } else {
        0.0
    };

    let x_of = |x: f64| ml + (x - x_min) / x_span * plot_w;
    let y_of = |y: f64| mt + plot_h - ((y - y_min) / (y_max - y_min)) * plot_h;

    let mut svg = String::with_capacity(8 * 1024);
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">"#,
        w = style.width,
        h = style.height
    );
    let _ = write!(
        svg,
        r#"<rect width="{}" height="{}" fill="white"/>"#,
        style.width, style.height
    );
    // Title.
    let _ = write!(
        svg,
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{} — {}</text>"#,
        style.width / 2.0,
        xml_escape(&fig.id),
        xml_escape(&axis_label),
    );

    // Axes.
    let x0 = ml;
    let y0 = mt + plot_h;
    let _ = write!(
        svg,
        r#"<line x1="{x0}" y1="{y0}" x2="{}" y2="{y0}" stroke="black"/>"#,
        ml + plot_w
    );
    let _ = write!(
        svg,
        r#"<line x1="{x0}" y1="{mt}" x2="{x0}" y2="{y0}" stroke="black"/>"#
    );

    // X ticks at the actual data points (the sweeps are discrete).
    for row in &fig.rows {
        let px = x_of(row.x);
        let _ = write!(
            svg,
            r#"<line x1="{px}" y1="{y0}" x2="{px}" y2="{}" stroke="black"/>"#,
            y0 + 5.0
        );
        let _ = write!(
            svg,
            r#"<text x="{px}" y="{}" text-anchor="middle">{}</text>"#,
            y0 + 20.0,
            fmt_tick(row.x)
        );
    }
    let _ = write!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        ml + plot_w / 2.0,
        style.height - 12.0,
        xml_escape(&fig.x_label)
    );

    // Y ticks: stepped out from 0 in both directions, so 0 is always one.
    let step = nice_step(y_max - y_min, 5);
    let mut ticks = Vec::new();
    let mut y = -step;
    while y >= y_min - 1e-12 {
        ticks.push(y);
        y -= step;
    }
    let mut y = 0.0;
    while y <= y_max + 1e-12 {
        ticks.push(y);
        y += step;
    }
    for y in ticks {
        let py = y_of(y);
        let _ = write!(
            svg,
            r#"<line x1="{}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>"#,
            x0 - 5.0
        );
        let _ = write!(
            svg,
            r##"<line x1="{x0}" y1="{py}" x2="{}" y2="{py}" stroke="#dddddd"/>"##,
            ml + plot_w
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="end">{}</text>"#,
            x0 - 9.0,
            py + 4.0,
            fmt_tick(y)
        );
    }
    let _ = write!(
        svg,
        r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
        mt + plot_h / 2.0,
        mt + plot_h / 2.0,
        xml_escape(&axis_label)
    );

    // Series: error bars, polyline, markers.
    for (si, points) in series.iter().enumerate() {
        let color = style.palette[si % style.palette.len()];
        for &(x, m, ci) in points {
            if ci > 0.0 {
                let px = x_of(x);
                let (top, bot) = (y_of(m + ci), y_of((m - ci).max(y_min)));
                let _ = write!(
                    svg,
                    r#"<line x1="{px}" y1="{top}" x2="{px}" y2="{bot}" stroke="{color}" stroke-width="1"/>"#
                );
                for py in [top, bot] {
                    let _ = write!(
                        svg,
                        r#"<line x1="{}" y1="{py}" x2="{}" y2="{py}" stroke="{color}" stroke-width="1"/>"#,
                        px - 3.0,
                        px + 3.0
                    );
                }
            }
        }
        let path: Vec<String> = points
            .iter()
            .map(|&(x, m, _)| format!("{:.2},{:.2}", x_of(x), y_of(m)))
            .collect();
        let _ = write!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            path.join(" ")
        );
        for &(x, m, _) in points {
            let _ = write!(
                svg,
                r#"<circle cx="{:.2}" cy="{:.2}" r="3.2" fill="{color}"/>"#,
                x_of(x),
                y_of(m)
            );
        }
    }

    // Legend (top-right inside the plot).
    for (si, name) in names.iter().enumerate() {
        let color = style.palette[si % style.palette.len()];
        let ly = mt + 14.0 + si as f64 * 18.0;
        let lx = ml + plot_w - 150.0;
        let _ = write!(
            svg,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/>"#,
            lx + 22.0
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}">{}</text>"#,
            lx + 28.0,
            ly + 4.0,
            xml_escape(name)
        );
    }

    svg.push_str("</svg>");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureRow, Series, PAPER_METRICS};

    /// `sample_fig()` drawn for metric `key`.
    fn sample_svg(key: &str, style: &PlotStyle) -> String {
        let fig = sample_fig();
        figure_to_svg(&fig, fig.metric(key), style)
    }

    fn sample_fig() -> FigureData {
        let row = |x: f64, v: [f64; 2], t: [f64; 2]| FigureRow {
            x,
            series: vec![
                Series::of("Appro-G", [[v[0], t[0]], [v[1], t[1]]]),
                Series::of(
                    "Greedy-G",
                    [[v[0] / 3.0, t[0] / 2.0], [v[1] / 3.0, t[1] / 2.0]],
                ),
            ],
        };
        FigureData {
            id: "fig5".into(),
            title: "sample".into(),
            x_label: "K".into(),
            metrics: &PAPER_METRICS,
            rows: vec![
                row(1.0, [80.0, 90.0], [0.2, 0.25]),
                row(2.0, [170.0, 180.0], [0.35, 0.45]),
                row(3.0, [250.0, 260.0], [0.5, 0.55]),
            ],
            timeseries: None,
        }
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let svg = sample_svg("volume", &PlotStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // One polyline per algorithm, one circle per (row, algorithm).
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        // Legend names appear.
        assert!(svg.contains("Appro-G"));
        assert!(svg.contains("Greedy-G"));
        // Both CI whiskers exist (nonzero ci on every point).
        assert!(svg.matches("stroke-width=\"1\"").count() >= 6);
        // The y axis names the metric with its unit.
        assert!(svg.contains(">volume of datasets demanded by admitted queries [GB]</text>"));
    }

    #[test]
    fn throughput_panel_scales_below_one() {
        let svg = sample_svg("throughput", &PlotStyle::default());
        assert!(svg.contains("system throughput [admitted/total]"));
        // Ticks like "0.2" show up for the [0, ~0.6] range.
        assert!(svg.contains(">0.2<") || svg.contains(">0.20<"));
    }

    /// `sample_fig()` with every Greedy-G mean shifted 150 below zero.
    fn negative_fig() -> FigureData {
        let mut fig = sample_fig();
        for row in &mut fig.rows {
            for v in &mut row.series[1].values {
                v.mean -= 150.0;
            }
        }
        fig
    }

    /// Every `attr="number"` value in `svg`.
    fn numbers(svg: &str, attr: &str) -> Vec<f64> {
        svg.split(&format!(" {attr}=\""))
            .skip(1)
            .map(|part| part.split('"').next().unwrap().parse().unwrap())
            .collect()
    }

    #[test]
    fn coordinates_stay_inside_canvas() {
        let style = PlotStyle::default();
        let (ml, mr, mt, mb) = style.margins;
        let (x_lo, x_hi) = (ml - 0.01, style.width - mr + 0.01);
        let (y_lo, y_hi) = (mt - 0.01, style.height - mb + 0.01);
        let negative = negative_fig();
        for svg in [
            sample_svg("volume", &style),
            figure_to_svg(&negative, negative.metric("volume"), &style),
        ] {
            // Markers, polylines and whiskers stay inside the plot area.
            for x in numbers(&svg, "cx") {
                assert!((x_lo..=x_hi).contains(&x), "cx {x} escapes the plot");
            }
            for y in numbers(&svg, "cy") {
                assert!((y_lo..=y_hi).contains(&y), "cy {y} escapes the plot");
            }
            for part in svg.split("<polyline points=\"").skip(1) {
                for point in part.split('"').next().unwrap().split(' ') {
                    let (x, y) = point.split_once(',').unwrap();
                    let (x, y): (f64, f64) = (x.parse().unwrap(), y.parse().unwrap());
                    assert!((x_lo..=x_hi).contains(&x), "polyline x {x} escapes");
                    assert!((y_lo..=y_hi).contains(&y), "polyline y {y} escapes");
                }
            }
            let whiskers = svg
                .split("<line")
                .filter(|l| l.contains("stroke-width=\"1\""));
            for whisker in whiskers {
                for y in [numbers(whisker, "y1"), numbers(whisker, "y2")].concat() {
                    assert!((y_lo..=y_hi).contains(&y), "whisker y {y} escapes");
                }
            }
        }
    }

    #[test]
    fn negative_data_extends_the_y_axis_below_zero() {
        let fig = negative_fig();
        let svg = figure_to_svg(&fig, fig.metric("volume"), &PlotStyle::default());
        // Ticks step out from 0 in both directions.
        assert!(svg.contains(">0</text>"), "{svg}");
        assert!(svg.contains(">-100</text>"), "{svg}");
        assert!(svg.contains(">200</text>"), "{svg}");
    }

    #[test]
    fn nice_steps_are_nice() {
        assert_eq!(nice_step(10.0, 5), 2.0);
        assert_eq!(nice_step(1.0, 5), 0.2);
        assert_eq!(nice_step(437.0, 5), 100.0);
        assert_eq!(nice_step(0.6, 5), 0.2);
    }

    #[test]
    fn escaping_defuses_markup() {
        assert_eq!(xml_escape("a<b&c>\"d\""), "a&lt;b&amp;c&gt;&quot;d&quot;");
    }

    #[test]
    fn single_row_figure_renders() {
        let mut fig = sample_fig();
        fig.rows.truncate(1);
        let svg = figure_to_svg(&fig, fig.metric("volume"), &PlotStyle::default());
        assert!(svg.contains("<polyline"));
    }
}
