//! Per-figure drivers and the figure schema.
//!
//! Each `figN` function regenerates the data behind one figure of the
//! paper as a [`FigureData`] that declares the metrics it reports — for
//! Figs. 2–5, 7 and 8 the paper's two panels, [`VOLUME`] and
//! [`THROUGHPUT`]. Figures 1 and 6 are topology illustrations;
//! [`fig1_text`] and [`fig6_text`] render them as ASCII.

use edgerep_core::BoxedAlgorithm;
use edgerep_testbed::{SimConfig, TestbedConfig};
use edgerep_workload::{presets, WorkloadParams};

use crate::runner::{run_simulation_point, run_testbed_point};
use crate::stats::Summary;

/// Every paper figure id, in figure order — the `repro all` set. Figures
/// 1 and 6 are topology illustrations; the rest carry data.
pub const FIGURE_IDS: [&str; 8] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];

/// One quantity a figure reports. The renderers draw one panel (text),
/// one column triple (CSV) and one chart (SVG) per declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Machine name: CSV column prefix, markdown header, SVG file suffix.
    pub key: &'static str,
    /// Human description, the panel heading and SVG axis label.
    pub label: &'static str,
    /// Unit the values are in, shown as `label [unit]`.
    pub unit: &'static str,
    /// Decimals of the `mean ± ci95` table cells.
    pub decimals: usize,
}

impl Metric {
    /// The metric `key`, shown as `label [unit]` at `decimals` places.
    pub const fn new(
        key: &'static str,
        label: &'static str,
        unit: &'static str,
        decimals: usize,
    ) -> Self {
        Self {
            key,
            label,
            unit,
            decimals,
        }
    }
}

/// Panel (a) of the paper's figures: admitted volume.
pub const VOLUME: Metric = Metric::new(
    "volume",
    "volume of datasets demanded by admitted queries",
    "GB",
    2,
);

/// Panel (b) of the paper's figures: system throughput.
pub const THROUGHPUT: Metric = Metric::new("throughput", "system throughput", "admitted/total", 3);

/// The paper's two panels, in order: the metrics of every series the
/// [`crate::runner`] points return.
pub const PAPER_METRICS: [Metric; 2] = [VOLUME, THROUGHPUT];

/// One series (an algorithm or policy) at one figure point: a summary
/// per metric the figure declares, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display name (e.g. `"Appro-G"`).
    pub name: String,
    /// One summary per declared metric.
    pub values: Vec<Summary>,
}

impl Series {
    /// Summarises per-seed metric rows — `per_seed[seed][metric]` — into
    /// one series: a [`Summary`] per metric over the seed axis.
    pub fn of<R: AsRef<[f64]>>(
        name: impl Into<String>,
        per_seed: impl IntoIterator<Item = R>,
    ) -> Self {
        let rows: Vec<R> = per_seed.into_iter().collect();
        let width = rows.first().map_or(0, |r| r.as_ref().len());
        let values = (0..width)
            .map(|m| Summary::of(&rows.iter().map(|r| r.as_ref()[m]).collect::<Vec<_>>()))
            .collect();
        Self {
            name: name.into(),
            values,
        }
    }

    /// One series per arm from per-seed cells `per_seed[seed][arm]`,
    /// each cell a row of metric values, named in arm order.
    pub fn per_arm<C, R>(
        names: impl IntoIterator<Item = impl Into<String>>,
        per_seed: &[C],
    ) -> Vec<Self>
    where
        C: AsRef<[R]>,
        R: AsRef<[f64]> + Copy,
    {
        names
            .into_iter()
            .enumerate()
            .map(|(ai, name)| Self::of(name, per_seed.iter().map(|c| c.as_ref()[ai])))
            .collect()
    }
}

/// One x-axis point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// The swept parameter value (network size, `F`, or `K`).
    pub x: f64,
    /// Per-series results at this point.
    pub series: Vec<Series>,
}

/// A regenerated figure: id, axis labels, declared metrics and all rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Paper figure id, e.g. `"fig2"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The metrics every series reports, in order.
    pub metrics: &'static [Metric],
    /// Rows in x order.
    pub rows: Vec<FigureRow>,
    /// Optional SLO trajectory sidecar (rendered
    /// [`edgerep_testbed::render_slo_csv`] text): per-epoch availability /
    /// QoS-miss / backlog / prefetch / forecast-error series for figures
    /// whose endpoint scalars hide a recovery or learning curve. `repro
    /// --csv` writes it as `{id}_timeseries.csv`; `None` for plain sweeps.
    pub timeseries: Option<String>,
}

impl FigureData {
    /// A figure with no timeseries sidecar.
    pub fn new(
        id: &str,
        title: &str,
        x_label: &str,
        metrics: &'static [Metric],
        rows: Vec<FigureRow>,
    ) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            metrics,
            rows,
            timeseries: None,
        }
    }

    /// Position of metric `key` in [`FigureData::metrics`].
    ///
    /// # Panics
    /// Panics if the figure does not declare `key`.
    pub fn metric(&self, key: &str) -> usize {
        self.metrics
            .iter()
            .position(|m| m.key == key)
            .unwrap_or_else(|| panic!("{} declares no metric {key:?}", self.id))
    }
}

/// Fig. 2: Appro-S vs Greedy-S vs Graph-S over network size (special
/// case: one dataset per query).
pub fn fig2(seeds: usize) -> FigureData {
    simulation_figure(
        "fig2",
        "Appro-S vs Greedy-S vs Graph-S (single-dataset queries)",
        "network size",
        &presets::NETWORK_SIZES,
        seeds,
        |n| (presets::fig2_special_case(n), edgerep_core::special_panel()),
    )
}

/// Fig. 3: Appro-G vs Greedy-G vs Graph-G over network size (general
/// case: multi-dataset queries).
pub fn fig3(seeds: usize) -> FigureData {
    simulation_figure(
        "fig3",
        "Appro-G vs Greedy-G vs Graph-G (multi-dataset queries)",
        "network size",
        &presets::NETWORK_SIZES,
        seeds,
        |n| {
            (
                presets::fig3_general_case(n),
                edgerep_core::simulation_panel(),
            )
        },
    )
}

/// Fig. 4: impact of the max number `F` of datasets demanded per query.
pub fn fig4(seeds: usize) -> FigureData {
    simulation_figure(
        "fig4",
        "Impact of max datasets per query F (Appro-G vs Greedy-G vs Graph-G)",
        "F",
        &presets::F_VALUES,
        seeds,
        |f| (presets::fig4_vary_f(f), edgerep_core::simulation_panel()),
    )
}

/// Fig. 5: impact of the max number `K` of replicas per dataset.
pub fn fig5(seeds: usize) -> FigureData {
    simulation_figure(
        "fig5",
        "Impact of max replicas K (Appro-G vs Greedy-G vs Graph-G)",
        "K",
        &presets::K_VALUES,
        seeds,
        |k| (presets::fig5_vary_k(k), edgerep_core::simulation_panel()),
    )
}

/// A simulation figure over the paper's two panels: at each `x`, the
/// algorithms and workload `point(x)` names, over `seeds` instances.
pub(crate) fn simulation_figure(
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[usize],
    seeds: usize,
    point: impl Fn(usize) -> (WorkloadParams, Vec<BoxedAlgorithm>),
) -> FigureData {
    let rows = xs
        .iter()
        .map(|&x| {
            let (params, panel) = point(x);
            FigureRow {
                x: x as f64,
                series: run_simulation_point(&params, &panel, seeds),
            }
        })
        .collect();
    FigureData::new(id, title, x_label, &PAPER_METRICS, rows)
}

/// The testbed panel of Fig. 7: Appro-S vs Popularity-S.
fn testbed_special_panel() -> Vec<BoxedAlgorithm> {
    vec![
        Box::new(edgerep_core::appro::ApproS::default()),
        Box::new(edgerep_core::popularity::Popularity::special()),
    ]
}

/// The testbed panel of Fig. 8: Appro-G vs Popularity-G.
fn testbed_general_panel() -> Vec<BoxedAlgorithm> {
    vec![
        Box::new(edgerep_core::appro::ApproG::default()),
        Box::new(edgerep_core::popularity::Popularity::general()),
    ]
}

/// Fig. 7: testbed, `F` sweep, Appro-S vs Popularity-S (single dataset
/// per query at `F = 1`; the sweep raises the cap as the paper does).
pub fn fig7(seeds: usize) -> FigureData {
    let rows = [1usize, 2, 3, 4, 5, 6]
        .iter()
        .map(|&f| {
            let cfg = TestbedConfig::default().with_max_datasets_per_query(f);
            let panel = if f == 1 {
                testbed_special_panel()
            } else {
                testbed_general_panel()
            };
            let mut series = run_testbed_point(&cfg, &panel, seeds, &SimConfig::default());
            // The panel switches from the -S to the -G algorithms at
            // F > 1; the figure's series are conceptually "Appro" vs
            // "Popularity", so normalize the names or the table header
            // (taken from row 0) would mislabel later rows.
            series[0].name = "Appro".to_owned();
            series[1].name = "Popularity".to_owned();
            FigureRow {
                x: f as f64,
                series,
            }
        })
        .collect();
    FigureData::new(
        "fig7",
        "Testbed: Appro vs Popularity over F (measured)",
        "F",
        &PAPER_METRICS,
        rows,
    )
}

/// Fig. 8: testbed, `K` sweep, Appro-G vs Popularity-G.
pub fn fig8(seeds: usize) -> FigureData {
    let rows = [1usize, 2, 3, 4, 5, 6, 7]
        .iter()
        .map(|&k| {
            let cfg = TestbedConfig::default().with_max_replicas(k);
            FigureRow {
                x: k as f64,
                series: run_testbed_point(
                    &cfg,
                    &testbed_general_panel(),
                    seeds,
                    &SimConfig::default(),
                ),
            }
        })
        .collect();
    FigureData::new(
        "fig8",
        "Testbed: Appro-G vs Popularity-G over K (measured)",
        "K",
        &PAPER_METRICS,
        rows,
    )
}

/// Fig. 1: the two-tier edge cloud illustration, as ASCII.
pub fn fig1_text() -> String {
    r#"Fig. 1 — A two-tier edge cloud G = (BS ∪ SW ∪ CL ∪ DC, E)

                    Internet
     DC1   DC2   DC3  ...        (remote data centers, tier 2)
       \    |    /
      [gateway switches]
       /    |    \
   SW --- SW --- SW              (WMAN switches)
   |  \    |    /  |
  CL1  CL2 CL3 ... CLn           (edge cloudlets, tier 1,
   |    |   |       |             co-located with switches)
  BS   BS  BS  ... BS            (base stations / access points)
   |    |   |       |
 users users users users
"#
    .to_owned()
}

/// Fig. 6: the testbed topology, as ASCII.
pub fn fig6_text() -> String {
    r#"Fig. 6 — Testbed topology (20 VMs + controller + 2 switches)

   [SFO DC]   [NYC DC]   [TOR DC]   [SGP DC]     4 VMs as data centers
       \         |           |         /
        +--------+-----------+--------+          WAN links (Internet)
                 |           |
              [SW 0]------[SW 1]                 2 metro switches
              /  |  \      /  |  \
          CL0  CL2 ... CL1  CL3 ... CL15         16 VMs as cloudlets
                 (metro region)
          [controller: runs the placement algorithms]
"#
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::check_schema;

    #[test]
    fn fig4_rows_cover_f_values() {
        let data = fig4(1);
        check_schema(&data).unwrap();
        assert_eq!(data.rows.len(), 6);
        assert_eq!(data.rows[0].x, 1.0);
        assert_eq!(data.rows[5].x, 6.0);
        for row in &data.rows {
            assert_eq!(row.series.len(), 3);
        }
    }

    #[test]
    fn fig2_uses_special_panel() {
        let data = fig2(1);
        check_schema(&data).unwrap();
        assert_eq!(data.rows[0].series[0].name, "Appro-S");
        assert_eq!(data.rows[0].series[1].name, "Greedy-S");
        assert_eq!(data.rows[0].series[2].name, "Graph-S");
    }

    #[test]
    fn topology_figures_render() {
        assert!(fig1_text().contains("two-tier"));
        assert!(fig6_text().contains("SGP DC"));
    }
}
