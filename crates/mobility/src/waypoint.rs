//! Free-space trajectory generators.
//!
//! Two generators are provided:
//!
//! * [`random_waypoint`] — the classic random-waypoint model (pick a destination uniformly,
//!   travel to it at a random speed, repeat).  Used as a simple baseline workload.
//! * [`taxi_trajectory`] — a hotspot-biased waypoint model standing in for the GeoLife taxi
//!   data set: destinations are drawn from a small set of urban hotspots, speeds vary per leg
//!   (traffic), and consecutive legs prefer bounded heading changes, which is the property the
//!   directed tile ordering exploits (Section 5.2, reference \[26\]).

use mpn_geom::{angle_diff, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trajectory::Trajectory;
use crate::{DEFAULT_DOMAIN, DEFAULT_SPEED_LIMIT, DEFAULT_TIMESTAMPS};

/// Configuration of the plain random-waypoint generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointConfig {
    /// Side length of the square domain.
    pub domain: f64,
    /// Maximum speed `V` in domain units per timestamp.
    pub speed_limit: f64,
    /// Number of timestamps to generate.
    pub timestamps: usize,
}

impl Default for WaypointConfig {
    fn default() -> Self {
        Self {
            domain: DEFAULT_DOMAIN,
            speed_limit: DEFAULT_SPEED_LIMIT,
            timestamps: DEFAULT_TIMESTAMPS,
        }
    }
}

/// Configuration of the taxi-like (GeoLife substitute) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiConfig {
    /// Side length of the square domain.
    pub domain: f64,
    /// Maximum speed `V` in domain units per timestamp.
    pub speed_limit: f64,
    /// Number of timestamps to generate.
    pub timestamps: usize,
    /// Number of hotspots (popular destinations) in the city.
    pub hotspots: usize,
    /// Standard deviation around a hotspot when picking a destination, as a domain fraction.
    pub hotspot_spread: f64,
    /// Maximum heading change between consecutive legs, in radians.
    pub max_turn: f64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        Self {
            domain: DEFAULT_DOMAIN,
            speed_limit: DEFAULT_SPEED_LIMIT,
            timestamps: DEFAULT_TIMESTAMPS,
            hotspots: 12,
            hotspot_spread: 0.04,
            max_turn: std::f64::consts::FRAC_PI_3,
        }
    }
}

/// Generates one random-waypoint trajectory.
#[must_use]
pub fn random_waypoint(config: &WaypointConfig, seed: u64) -> Trajectory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(config.timestamps);
    let mut pos = uniform_point(&mut rng, config.domain);
    let mut dest = uniform_point(&mut rng, config.domain);
    let mut speed = leg_speed(&mut rng, config.speed_limit);
    points.push(pos);
    while points.len() < config.timestamps.max(2) {
        if pos.dist(dest) <= speed {
            pos = dest;
            dest = uniform_point(&mut rng, config.domain);
            speed = leg_speed(&mut rng, config.speed_limit);
        } else if let Some(dir) = pos.direction_to(dest) {
            pos = pos + dir * speed;
        }
        points.push(pos);
    }
    Trajectory::new(points)
}

/// Generates one taxi-like trajectory (GeoLife substitute).
#[must_use]
pub fn taxi_trajectory(config: &TaxiConfig, seed: u64) -> Trajectory {
    let mut rng = StdRng::seed_from_u64(seed);
    let hotspots: Vec<Point> =
        (0..config.hotspots.max(1)).map(|_| uniform_point(&mut rng, config.domain)).collect();
    let sigma = config.hotspot_spread * config.domain;

    let mut points = Vec::with_capacity(config.timestamps);
    let mut pos = near_hotspot(&mut rng, &hotspots, sigma, config.domain);
    let mut dest = near_hotspot(&mut rng, &hotspots, sigma, config.domain);
    let mut speed = leg_speed(&mut rng, config.speed_limit);
    let mut last_heading: Option<f64> = None;
    points.push(pos);
    while points.len() < config.timestamps.max(2) {
        if pos.dist(dest) <= speed {
            // Arrive this timestamp, then pick the next destination for subsequent steps.
            pos = dest;
            // Prefer a destination reachable without a sharp turn, retrying a few times.
            let mut best = near_hotspot(&mut rng, &hotspots, sigma, config.domain);
            if let Some(h) = last_heading {
                for _ in 0..8 {
                    if let Some(dir) = pos.direction_to(best) {
                        if angle_diff(dir.y.atan2(dir.x), h) <= config.max_turn {
                            break;
                        }
                    }
                    best = near_hotspot(&mut rng, &hotspots, sigma, config.domain);
                }
            }
            dest = best;
            speed = leg_speed(&mut rng, config.speed_limit);
        } else if let Some(dir) = pos.direction_to(dest) {
            last_heading = Some(dir.y.atan2(dir.x));
            pos = pos + dir * speed.min(pos.dist(dest));
        }
        points.push(pos);
    }
    Trajectory::new(points)
}

fn uniform_point<R: Rng>(rng: &mut R, domain: f64) -> Point {
    Point::new(rng.gen_range(0.0..=domain), rng.gen_range(0.0..=domain))
}

fn near_hotspot<R: Rng>(rng: &mut R, hotspots: &[Point], sigma: f64, domain: f64) -> Point {
    let centre = hotspots[rng.gen_range(0..hotspots.len())];
    let (dx, dy) = (gaussian(rng) * sigma, gaussian(rng) * sigma);
    Point::new((centre.x + dx).clamp(0.0, domain), (centre.y + dy).clamp(0.0, domain))
}

fn leg_speed<R: Rng>(rng: &mut R, limit: f64) -> f64 {
    // Traffic: each leg runs somewhere between 30% and 100% of the speed limit.
    rng.gen_range(0.3..=1.0) * limit
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_waypoint_respects_speed_and_domain() {
        let config = WaypointConfig { domain: 1000.0, speed_limit: 5.0, timestamps: 2000 };
        let t = random_waypoint(&config, 17);
        assert_eq!(t.len(), 2000);
        assert!(t.max_step() <= 5.0 + 1e-9);
        assert!(t
            .points()
            .iter()
            .all(|p| (0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y)));
        // Reproducibility.
        assert_eq!(t, random_waypoint(&config, 17));
        assert_ne!(t, random_waypoint(&config, 18));
    }

    #[test]
    fn taxi_trajectory_respects_speed_and_domain() {
        let config = TaxiConfig {
            domain: 1000.0,
            speed_limit: 8.0,
            timestamps: 3000,
            ..TaxiConfig::default()
        };
        let t = taxi_trajectory(&config, 4);
        assert_eq!(t.len(), 3000);
        assert!(t.max_step() <= 8.0 + 1e-9);
        assert!(t
            .points()
            .iter()
            .all(|p| (0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y)));
        // The taxi must actually move around (not be stationary).
        assert!(t.arc_length() > 100.0);
    }

    #[test]
    fn taxi_headings_change_gradually_most_of_the_time() {
        let config = TaxiConfig {
            domain: 1000.0,
            speed_limit: 6.0,
            timestamps: 4000,
            ..TaxiConfig::default()
        };
        let t = taxi_trajectory(&config, 21);
        let mut moves = 0usize;
        let mut smooth = 0usize;
        let pts = t.points();
        for w in pts.windows(3) {
            let h1 = mpn_geom::heading(w[0], w[1]);
            let h2 = mpn_geom::heading(w[1], w[2]);
            if let (Some(a), Some(b)) = (h1, h2) {
                moves += 1;
                if angle_diff(a, b) <= config.max_turn + 1e-9 {
                    smooth += 1;
                }
            }
        }
        assert!(moves > 1000);
        // Temporal heading correlation: the overwhelming majority of consecutive displacements
        // deviate by at most max_turn (the property the directed ordering relies on).
        assert!(
            smooth as f64 / moves as f64 > 0.9,
            "only {smooth}/{moves} steps had bounded heading change"
        );
    }

    #[test]
    fn taxi_visits_multiple_hotspot_areas() {
        let config = TaxiConfig { domain: 1000.0, timestamps: 5000, ..TaxiConfig::default() };
        let t = taxi_trajectory(&config, 33);
        // Coarse 5x5 occupancy: a hotspot-driven taxi covers several distinct cells but not
        // necessarily the whole city.
        let mut cells = std::collections::HashSet::new();
        for p in t.points() {
            cells.insert((((p.x / 200.0) as i32).min(4), ((p.y / 200.0) as i32).min(4)));
        }
        assert!(cells.len() >= 3, "taxi should visit several areas, saw {}", cells.len());
    }

    #[test]
    fn tiny_timestamp_counts_still_produce_valid_trajectories() {
        let t = random_waypoint(&WaypointConfig { timestamps: 1, ..WaypointConfig::default() }, 0);
        assert_eq!(t.len(), 2);
        let t2 = taxi_trajectory(&TaxiConfig { timestamps: 0, ..TaxiConfig::default() }, 0);
        assert_eq!(t2.len(), 2);
    }
}
