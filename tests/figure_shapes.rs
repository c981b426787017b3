//! Reproduction-contract tests: the *shapes* the paper reports must hold
//! on reduced-seed regenerations of every figure — who wins, roughly by
//! how much, and the monotone trends in `F` and `K`.

use edgerep_exp::report::check_schema;
use edgerep_exp::{figures, FigureData, FigureRow};

const SEEDS: usize = 8;

/// Regenerates a figure and checks it against its declared schema: the
/// paper's two panels.
fn regenerate(fig: fn(usize) -> FigureData) -> FigureData {
    let data = fig(SEEDS);
    check_schema(&data).unwrap();
    assert_eq!(data.metrics, &figures::PAPER_METRICS[..]);
    data
}

/// Mean of paper metric `key` for algorithm `alg` at `row`.
fn mean(row: &FigureRow, alg: usize, key: &str) -> f64 {
    let m = figures::PAPER_METRICS
        .iter()
        .position(|m| m.key == key)
        .expect("a paper metric");
    row.series[alg].values[m].mean
}

fn mean_volume(row: &FigureRow, alg: usize) -> f64 {
    mean(row, alg, "volume")
}

fn mean_throughput(row: &FigureRow, alg: usize) -> f64 {
    mean(row, alg, "throughput")
}

#[test]
fn fig2_appro_s_dominates_both_baselines() {
    let fig = regenerate(figures::fig2);
    for row in &fig.rows {
        let (appro, greedy, graph) = (
            mean_volume(row, 0),
            mean_volume(row, 1),
            mean_volume(row, 2),
        );
        // Paper: ~4x Greedy-S, ~2x Graph-S; accept reduced factors on a
        // reduced-seed regeneration.
        assert!(
            appro > 2.0 * greedy,
            "n={}: Appro-S {appro} not ≫ Greedy-S {greedy}",
            row.x
        );
        assert!(
            appro > 1.2 * graph,
            "n={}: Appro-S {appro} not > Graph-S {graph}",
            row.x
        );
        assert!(mean_throughput(row, 0) > mean_throughput(row, 1));
        assert!(mean_throughput(row, 0) > mean_throughput(row, 2));
    }
}

#[test]
fn fig3_appro_g_dominates_both_baselines() {
    let fig = regenerate(figures::fig3);
    for row in &fig.rows {
        let (appro, greedy, graph) = (
            mean_volume(row, 0),
            mean_volume(row, 1),
            mean_volume(row, 2),
        );
        assert!(
            appro > 2.0 * greedy,
            "n={}: {appro} vs greedy {greedy}",
            row.x
        );
        assert!(appro > 1.2 * graph, "n={}: {appro} vs graph {graph}", row.x);
    }
}

#[test]
fn fig4_throughput_declines_with_f() {
    let fig = regenerate(figures::fig4);
    // Paper: "the system throughput of three algorithms decreases with the
    // growth of F". Checked end-to-end (F=1 vs F=6) per algorithm, which
    // is robust to small non-monotonic wiggles at 5 seeds.
    for alg in 0..3 {
        let first = mean_throughput(&fig.rows[0], alg);
        let last = mean_throughput(&fig.rows[fig.rows.len() - 1], alg);
        assert!(
            last < first,
            "algorithm {alg}: throughput did not decline ({first} -> {last})"
        );
    }
    // Volume grows from F=1 to its peak (paper: rises until F≈5).
    let v1 = mean_volume(&fig.rows[0], 0);
    let peak = fig
        .rows
        .iter()
        .map(|r| mean_volume(r, 0))
        .fold(0.0, f64::max);
    assert!(peak > v1, "Appro-G volume should grow with F somewhere");
}

#[test]
fn fig5_both_metrics_grow_with_k() {
    let fig = regenerate(figures::fig5);
    for alg in 0..3 {
        let v_first = mean_volume(&fig.rows[0], alg);
        let v_last = mean_volume(&fig.rows[fig.rows.len() - 1], alg);
        assert!(
            v_last > v_first,
            "algorithm {alg}: volume did not grow in K ({v_first} -> {v_last})"
        );
        let t_first = mean_throughput(&fig.rows[0], alg);
        let t_last = mean_throughput(&fig.rows[fig.rows.len() - 1], alg);
        assert!(
            t_last > t_first,
            "algorithm {alg}: throughput did not grow in K"
        );
    }
    // And Appro stays on top at every K.
    for row in &fig.rows {
        assert!(mean_volume(row, 0) > mean_volume(row, 1));
        assert!(mean_volume(row, 0) > mean_volume(row, 2));
    }
}

#[test]
fn fig7_appro_beats_popularity_and_throughput_declines() {
    let fig = regenerate(figures::fig7);
    for row in &fig.rows {
        assert!(
            mean_volume(row, 0) > mean_volume(row, 1),
            "F={}: Appro below Popularity",
            row.x
        );
    }
    let first = mean_throughput(&fig.rows[0], 0);
    let last = mean_throughput(&fig.rows[fig.rows.len() - 1], 0);
    assert!(last < first, "testbed throughput should decline in F");
}

#[test]
fn fig8_metrics_grow_with_k_and_appro_wins() {
    let fig = regenerate(figures::fig8);
    for alg in 0..2 {
        let v_first = mean_volume(&fig.rows[0], alg);
        let v_last = mean_volume(&fig.rows[fig.rows.len() - 1], alg);
        assert!(v_last > v_first, "algorithm {alg}: volume flat in K");
    }
    for row in &fig.rows {
        assert!(
            mean_volume(row, 0) >= mean_volume(row, 1) * 0.95,
            "K={}: Appro-G {} clearly below Popularity-G {}",
            row.x,
            mean_volume(row, 0),
            mean_volume(row, 1)
        );
        assert!(mean_throughput(row, 0) > mean_throughput(row, 1));
    }
}
