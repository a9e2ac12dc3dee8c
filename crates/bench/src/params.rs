//! Experiment parameters: the contents of Table 2 plus the harness scale switch.

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI / smoke runs: every figure binary finishes in a couple of minutes.
    Smoke,
    /// Reduced sizes: every figure binary finishes in minutes on a laptop.
    Quick,
    /// The paper's sizes (`N = 21,287` POIs, 10 groups, 10,000 timestamps).
    Paper,
}

impl Scale {
    /// Reads the scale from the `MPN_BENCH_SCALE` environment variable (`quick` by default).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MPN_BENCH_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") | Ok("full") => Scale::Paper,
            Ok("smoke") | Ok("SMOKE") | Ok("ci") => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// Number of POIs (`N` in Table 2).
    #[must_use]
    pub fn poi_count(self) -> usize {
        match self {
            Scale::Smoke => 1_500,
            Scale::Quick => 4_000,
            Scale::Paper => 21_287,
        }
    }

    /// Number of user groups monitored per configuration.
    #[must_use]
    pub fn groups(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 3,
            Scale::Paper => 10,
        }
    }

    /// Number of timestamps replayed per trajectory.
    #[must_use]
    pub fn timestamps(self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Quick => 600,
            Scale::Paper => 10_000,
        }
    }

    /// Human-readable name for report headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// Default angular deviation `θ` of the directed ordering (the paper learns it from recent
/// travel directions; 45° is a representative bound from reference \[26\]).
pub const DEFAULT_THETA: f64 = std::f64::consts::FRAC_PI_4;

/// Group sizes evaluated by Fig. 13 / Fig. 17 (Table 2: 2–6, default 3).
pub const GROUP_SIZES: [usize; 5] = [2, 3, 4, 5, 6];

/// Default group size (Table 2).
pub const DEFAULT_GROUP_SIZE: usize = 3;

/// Data-size fractions evaluated by Fig. 14 / Fig. 18 (Table 2: 0.25–1.0 of `N`).
pub const DATA_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Speed fractions evaluated by Fig. 15 (Table 2: 0.25–1.0 of the speed limit `V`).
pub const SPEED_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Buffering parameters evaluated by Fig. 16 / Fig. 19.
pub const BUFFER_SIZES: [usize; 5] = [10, 25, 50, 75, 100];

/// Default buffering parameter `b` (footnote 5 of the paper).
pub const DEFAULT_BUFFER: usize = 100;

/// Tile limit `α` (Section 7.1: "we set α = 30").
pub const ALPHA: usize = 30;

/// Split level `L` (Section 7.1: "L = 2"), the one Tile-MSR runs with.
pub use mpn_core::SPLIT_LEVEL;

/// Prints Table 2 (parameter defaults and ranges) as CSV.
pub fn print_table2() {
    println!("parameter,default,range");
    println!("data size n,N,0.25N;0.5N;0.75N;1.0N");
    println!("user group size m,{DEFAULT_GROUP_SIZE},2;3;4;5;6");
    println!("user speed,V,0.25V;0.5V;0.75V;1.0V");
    println!("tile limit alpha,{ALPHA},-");
    println!("split level L,{SPLIT_LEVEL},-");
    println!("buffering parameter b,{DEFAULT_BUFFER},10;25;50;75;100");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_consistent_sizes() {
        assert!(Scale::Smoke.poi_count() < Scale::Quick.poi_count());
        assert!(Scale::Quick.poi_count() < Scale::Paper.poi_count());
        assert!(Scale::Quick.groups() < Scale::Paper.groups());
        assert!(Scale::Quick.timestamps() < Scale::Paper.timestamps());
        assert_eq!(Scale::Paper.poi_count(), 21_287);
        assert_eq!(Scale::Smoke.name(), "smoke");
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Paper.name(), "paper");
    }

    #[test]
    fn parameter_grids_match_table_2() {
        assert_eq!(GROUP_SIZES, [2, 3, 4, 5, 6]);
        assert_eq!(DATA_FRACTIONS.len(), 4);
        assert_eq!(SPEED_FRACTIONS.len(), 4);
        assert_eq!(BUFFER_SIZES.len(), 5);
        assert_eq!(DEFAULT_GROUP_SIZE, 3);
        assert_eq!(ALPHA, 30);
        assert_eq!(SPLIT_LEVEL, 2);
        assert_eq!(DEFAULT_BUFFER, 100);
    }
}
