//! Section 7's Figures 13–19 as one table, one runner and one checker.
//!
//! Every figure varies one parameter of Table 2 around the defaults, on both trajectory
//! kinds, for one objective: `FIGURES` holds that as seven rows over four axis shapes.
//! `run` replays a figure's cells through `mpn_sim::run_workload` and `check` compares
//! each series with the paper's *qualitative* claims — protocol counters only, which are
//! deterministic per seed; never the wall-clock column:
//!
//! * **Figures 13–15 (MPN, vary m / n / speed)** — Tile-D's update frequency is at most
//!   Circle's and at most Tile's in every cell; Tile's is at most Circle's on the series
//!   mean; a tile method's packets per timestamp stay within 1.1 × Circle's on the series
//!   mean (compression keeps communication cost following update frequency).
//! * **Figures 16 and 19 (vary b)** — Tile-D-b's update frequency does not increase with
//!   `b` and is within 2 % of Tile-D's at `b = 100`; its packets per timestamp are within
//!   1 % of Tile-D's and it issues no more R-tree queries per update than Tile-D at every
//!   `b`.  (No factor is asserted: Tile-D's per-computation candidate pool already serves
//!   most tiles without the index, so the §5.4 buffer has little I/O left to save.)
//! * **Figures 17–18 (Sum-MPN, vary m / n)** — only that every method completes with at
//!   least one update per group.  The paper's claim that tile regions beat circles is *not*
//!   reproduced on the synthetic workloads: the SUM update frequency saturates near one
//!   update per timestamp for every method, which `not_reproduced` reports under the
//!   series instead of staying silent.

use std::process::ExitCode;

use mpn_core::{Method, Objective};
use mpn_sim::{run_workload, MonitorConfig, WorkloadSummary};

use crate::datasets::{build_poi_tree, build_workload, TrajectoryKind};
use crate::params::{
    print_table2, Scale, BUFFER_SIZES, DATA_FRACTIONS, DEFAULT_BUFFER, DEFAULT_GROUP_SIZE,
    DEFAULT_THETA, GROUP_SIZES, SPEED_FRACTIONS,
};

/// The parameter a figure varies (its x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    GroupSize,
    DataSize,
    Speed,
    Buffer,
}

/// One evaluation figure: what it varies, for which objective, on which workload seed.
#[derive(Debug)]
struct Figure {
    number: u32,
    objective: Objective,
    axis: Axis,
    /// Workload seed; the group-size figures add `m` to it, one workload per group size.
    seed: u64,
}

const FIGURES: [Figure; 7] = [
    Figure { number: 13, objective: Objective::Max, axis: Axis::GroupSize, seed: 100 },
    Figure { number: 14, objective: Objective::Max, axis: Axis::DataSize, seed: 200 },
    Figure { number: 15, objective: Objective::Max, axis: Axis::Speed, seed: 300 },
    Figure { number: 16, objective: Objective::Max, axis: Axis::Buffer, seed: 400 },
    Figure { number: 17, objective: Objective::Sum, axis: Axis::GroupSize, seed: 500 },
    Figure { number: 18, objective: Objective::Sum, axis: Axis::DataSize, seed: 600 },
    Figure { number: 19, objective: Objective::Sum, axis: Axis::Buffer, seed: 700 },
];

fn figure(number: u32) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.number == number)
}

impl Axis {
    /// CSV column name and series-title phrase.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Axis::GroupSize => ("m", "vary group size m"),
            Axis::DataSize => ("n_fraction", "vary data size n"),
            Axis::Speed => ("speed_fraction", "vary user speed"),
            Axis::Buffer => ("b", "vary buffering parameter b"),
        }
    }

    /// The x-values of Table 2.
    fn values(self) -> Vec<f64> {
        match self {
            Axis::GroupSize => GROUP_SIZES.iter().map(|&m| m as f64).collect(),
            Axis::DataSize => DATA_FRACTIONS.to_vec(),
            Axis::Speed => SPEED_FRACTIONS.to_vec(),
            Axis::Buffer => BUFFER_SIZES.iter().map(|&b| b as f64).collect(),
        }
    }
}

/// One method's result at one x-value.
#[derive(Debug)]
struct Row {
    x: f64,
    method: &'static str,
    summary: WorkloadSummary,
}

/// A figure's rows on one trajectory kind, in print order.
#[derive(Debug)]
struct Series {
    kind: TrajectoryKind,
    rows: Vec<Row>,
}

impl Series {
    /// The rows grouped by x-value, in print order.
    fn cells(&self) -> Vec<&[Row]> {
        self.rows.chunk_by(|a, b| a.x == b.x).collect()
    }

    /// Mean of `value` over the cells for one method.
    fn mean(&self, method: &str, value: fn(&WorkloadSummary) -> f64) -> f64 {
        let values: Vec<f64> =
            self.rows.iter().filter(|r| r.method == method).map(|r| value(&r.summary)).collect();
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn of<'a>(cell: &'a [Row], method: &str) -> &'a WorkloadSummary {
    &cell.iter().find(|r| r.method == method).expect("the cell ran this method").summary
}

/// Runs the cells of a figure at the given x-values on one trajectory kind: Table 2's
/// defaults with the axis parameter substituted.  The buffering axis compares Tile-D with
/// Tile-D-b at that `b`; every other axis compares Circle, Tile and Tile-D.
fn run_series(figure: &Figure, scale: Scale, kind: TrajectoryKind, xs: &[f64]) -> Series {
    let tile_d = Method::tile_directed(DEFAULT_THETA);
    let mut rows = Vec::new();
    for &x in xs {
        let (mut m, mut data_fraction, mut speed_fraction) = (DEFAULT_GROUP_SIZE, 1.0, 1.0);
        let (mut seed, mut methods) = (figure.seed, vec![Method::circle(), Method::tile(), tile_d]);
        match figure.axis {
            Axis::GroupSize => (m, seed) = (x as usize, seed + x as u64),
            Axis::DataSize => data_fraction = x,
            Axis::Speed => speed_fraction = x,
            Axis::Buffer => {
                methods = vec![tile_d, Method::tile_directed_buffered(DEFAULT_THETA, x as usize)];
            }
        }
        let tree = build_poi_tree(scale, data_fraction, 42);
        let workload = build_workload(kind, scale, m, speed_fraction, seed);
        for method in methods {
            let summary =
                run_workload(&tree, &workload, &MonitorConfig::new(figure.objective, method));
            rows.push(Row { x, method: method.name(), summary });
        }
    }
    Series { kind, rows }
}

/// Runs every cell of a figure on both trajectory kinds.
fn run(figure: &Figure, scale: Scale) -> Vec<Series> {
    let xs = figure.axis.values();
    TrajectoryKind::all().into_iter().map(|kind| run_series(figure, scale, kind, &xs)).collect()
}

const UPDATE_FREQUENCY: fn(&WorkloadSummary) -> f64 = |s| s.update_frequency;
const PACKETS: fn(&WorkloadSummary) -> f64 = |s| s.packets_per_timestamp;

/// The claims of the module docs that `series` violates, one line each.
fn check(figure: &Figure, series: &Series) -> Vec<String> {
    let mut violated = Vec::new();
    let mut claim = |holds: bool, what: String| {
        if !holds {
            violated.push(format!("Figure {} ({}): {what}", figure.number, series.kind.name()));
        }
    };
    let x_name = figure.axis.names().0;
    match (figure.axis, figure.objective) {
        (Axis::Buffer, _) => {
            let within = |a: f64, b: f64, tolerance: f64| (a - b).abs() <= tolerance * b;
            let mut previous = f64::INFINITY;
            for cell in series.cells() {
                let (x, plain, buffered) = (cell[0].x, of(cell, "Tile-D"), of(cell, "Tile-D-b"));
                let (uf, plain_uf) = (buffered.update_frequency, plain.update_frequency);
                claim(
                    uf <= previous,
                    format!("Tile-D-b's update frequency rose to {uf:.6} at {x_name} = {x}"),
                );
                previous = uf;
                claim(
                    x != DEFAULT_BUFFER as f64 || within(uf, plain_uf, 0.02),
                    format!(
                        "Tile-D-b's update frequency {uf:.6} at {x_name} = {x} is not within 2% \
                         of Tile-D's {plain_uf:.6}"
                    ),
                );
                let (packets, plain_packets) =
                    (buffered.packets_per_timestamp, plain.packets_per_timestamp);
                claim(
                    within(packets, plain_packets, 0.01),
                    format!(
                        "Tile-D-b's packets per timestamp {packets:.4} at {x_name} = {x} are not \
                         within 1% of Tile-D's {plain_packets:.4}"
                    ),
                );
                let (queries, plain_queries) =
                    (buffered.rtree_queries_per_update, plain.rtree_queries_per_update);
                claim(
                    queries <= plain_queries,
                    format!(
                        "Tile-D-b issues {queries:.1} R-tree queries per update at {x_name} = {x}, \
                         more than Tile-D's {plain_queries:.1}"
                    ),
                );
            }
        }
        (_, Objective::Max) => {
            for cell in series.cells() {
                let tile_d = of(cell, "Tile-D").update_frequency;
                for other in ["Circle", "Tile"] {
                    let theirs = of(cell, other).update_frequency;
                    claim(
                        tile_d <= theirs,
                        format!(
                            "Tile-D's update frequency {tile_d:.6} at {x_name} = {} exceeds \
                             {other}'s {theirs:.6}",
                            cell[0].x
                        ),
                    );
                }
            }
            let (circle, tile) =
                (series.mean("Circle", UPDATE_FREQUENCY), series.mean("Tile", UPDATE_FREQUENCY));
            claim(
                tile <= circle,
                format!("Tile's mean update frequency {tile:.6} exceeds Circle's {circle:.6}"),
            );
            let circle = series.mean("Circle", PACKETS);
            for method in ["Tile", "Tile-D"] {
                let packets = series.mean(method, PACKETS);
                claim(
                    packets <= 1.1 * circle,
                    format!(
                        "{method}'s mean packets per timestamp {packets:.4} exceed 1.1 x \
                         Circle's {circle:.4}"
                    ),
                );
            }
        }
        (_, Objective::Sum) => {
            for Row { x, method, summary } in &series.rows {
                let groups = &summary.per_group;
                claim(
                    !groups.is_empty() && groups.iter().all(|g| g.updates >= 1),
                    format!(
                        "{method} at {x_name} = {x} did not complete with an update in every group"
                    ),
                );
            }
        }
    }
    violated
}

/// For the Sum-MPN scalability figures: the paper's "tile regions need fewer updates than
/// circles" where the series does not show it, as a CSV comment naming the worst cell.
fn not_reproduced(figure: &Figure, series: &Series) -> Option<String> {
    if figure.objective != Objective::Sum || figure.axis == Axis::Buffer {
        return None;
    }
    fn gap(cell: &[Row]) -> f64 {
        of(cell, "Tile").update_frequency - of(cell, "Circle").update_frequency
    }
    let cells = series.cells();
    let worse = cells.iter().filter(|cell| gap(cell) > 0.0).count();
    let worst = cells.iter().max_by(|a, b| gap(a).total_cmp(&gap(b)))?;
    (worse > 0).then(|| {
        format!(
            "# not reproduced: SUM update frequency saturates (series mean Circle {:.3} / Tile \
             {:.3} / Tile-D {:.3} updates per timestamp; Tile above Circle in {worse} of {} \
             cells, worst {} = {}: {:.3} vs {:.3})",
            series.mean("Circle", UPDATE_FREQUENCY),
            series.mean("Tile", UPDATE_FREQUENCY),
            series.mean("Tile-D", UPDATE_FREQUENCY),
            cells.len(),
            figure.axis.names().0,
            worst[0].x,
            of(worst, "Tile").update_frequency,
            of(worst, "Circle").update_frequency,
        )
    })
}

fn print(figure: &Figure, series: &Series) {
    let (x_name, phrase) = figure.axis.names();
    let objective = if figure.objective == Objective::Sum { "Sum-MPN, " } else { "" };
    println!("# Figure {} ({}) — {objective}{phrase}", figure.number, series.kind.name());
    println!(
        "{x_name},method,update_frequency,packets_per_timestamp,mean_time_us,updates_per_group"
    );
    for Row { x, method, summary } in &series.rows {
        println!(
            "{x},{method},{:.6},{:.4},{:.1},{:.1}",
            summary.update_frequency,
            summary.packets_per_timestamp,
            summary.mean_compute_time.as_secs_f64() * 1e6,
            summary.updates_per_group,
        );
    }
    if let Some(note) = not_reproduced(figure, series) {
        println!("{note}");
    }
}

/// The `figures <13…19|table2|all>…` command line: prints each requested figure's CSV series
/// at the `MPN_BENCH_SCALE` scale and every violated claim on stderr.  Fails when a claim
/// was violated (or an argument was not understood).
#[must_use]
pub fn cli(args: &[String]) -> ExitCode {
    let number = |arg: &String| arg.parse().ok().filter(|&n| figure(n).is_some());
    if args.is_empty() || !args.iter().all(|a| a == "all" || a == "table2" || number(a).is_some()) {
        eprintln!("usage: figures <13|14|15|16|17|18|19|table2|all>...");
        return ExitCode::from(2);
    }
    let scale = Scale::from_env();
    let mut violated = Vec::new();
    for arg in args {
        if arg == "all" || arg == "table2" {
            print_table2();
        }
        for figure in FIGURES.iter().filter(|f| arg == "all" || number(arg) == Some(f.number)) {
            eprintln!("figure {}: scale = {}", figure.number, scale.name());
            for series in run(figure, scale) {
                print(figure, &series);
                violated.extend(check(figure, &series));
            }
        }
    }
    for claim in &violated {
        eprintln!("violated: {claim}");
    }
    if violated.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn the_table_covers_figures_13_to_19_over_table_2s_axes() {
        let numbers: Vec<u32> = FIGURES.iter().map(|f| f.number).collect();
        assert_eq!(numbers, [13, 14, 15, 16, 17, 18, 19]);
        assert!(figure(12).is_none() && figure(20).is_none());
        assert_eq!(Axis::GroupSize.values(), [2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(Axis::DataSize.values(), Axis::Speed.values());
        assert_eq!(Axis::Buffer.values().last(), Some(&(DEFAULT_BUFFER as f64)));
    }

    fn row(x: f64, method: &'static str, update_frequency: f64, packets: f64, queries: f64) -> Row {
        let summary = WorkloadSummary {
            groups: 0,
            update_frequency,
            updates_per_group: 0.0,
            mean_compute_time: Duration::ZERO,
            packets_per_timestamp: packets,
            rtree_queries_per_update: queries,
            per_group: Vec::new(),
        };
        Row { x, method, summary }
    }

    #[test]
    fn check_names_each_violated_claim() {
        let series = Series {
            kind: TrajectoryKind::Geolife,
            rows: vec![
                row(3.0, "Circle", 0.5, 4.0, 1.0),
                row(3.0, "Tile", 0.6, 4.5, 30.0),
                row(3.0, "Tile-D", 0.7, 4.2, 30.0),
            ],
        };
        // Tile-D above Circle and above Tile in the cell, Tile above Circle on the mean,
        // Tile's packets above 1.1 x Circle's.
        let violated = check(figure(13).unwrap(), &series);
        assert_eq!(violated.len(), 4, "{violated:?}");
        assert!(violated[0].contains("m = 3") && violated[0].contains("Circle"));
        // A SUM cell whose summary holds no group did not complete; and Tile is not below
        // Circle in its one cell.
        assert_eq!(check(figure(17).unwrap(), &series).len(), 3);
        assert!(not_reproduced(figure(17).unwrap(), &series).unwrap().contains("1 of 1 cells"));
        assert!(not_reproduced(figure(13).unwrap(), &series).is_none());

        // 20% off Tile-D's frequency at b = 100, packets 2.5% off, 120% of the queries.
        let buffered = Series {
            kind: TrajectoryKind::Geolife,
            rows: vec![
                row(100.0, "Tile-D", 0.5, 4.0, 100.0),
                row(100.0, "Tile-D-b", 0.6, 4.1, 120.0),
            ],
        };
        assert_eq!(check(figure(16).unwrap(), &buffered).len(), 3);
    }

    /// The default cell of a figure on one trajectory kind at smoke scale, checked against
    /// the paper's claims.
    fn assert_claims_hold(number: u32, x: usize, kind: TrajectoryKind, methods: usize) {
        let figure = figure(number).unwrap();
        let series = run_series(figure, Scale::Smoke, kind, &[x as f64]);
        assert_eq!(series.rows.len(), methods);
        assert_eq!(check(figure, &series), Vec::<String>::new());
    }

    // "Reproduces the paper" as a test result: the default cell (m = 3) of Figure 13 on both
    // trajectory kinds and the b = 100 cell of Figure 16, one test per kind so they share the
    // cores.  The `figures` binary checks every cell of every figure (CI runs it).
    #[test]
    fn the_papers_claims_hold_on_a_smoke_slice_of_geolife() {
        assert_claims_hold(13, DEFAULT_GROUP_SIZE, TrajectoryKind::Geolife, 3);
        assert_claims_hold(16, DEFAULT_BUFFER, TrajectoryKind::Geolife, 2);
    }

    #[test]
    fn the_papers_claims_hold_on_a_smoke_slice_of_oldenburg() {
        assert_claims_hold(13, DEFAULT_GROUP_SIZE, TrajectoryKind::Oldenburg, 3);
    }
}
