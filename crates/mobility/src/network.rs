//! Network-based trajectory generation (Brinkhoff-style, the "Oldenburg" substitute).
//!
//! Brinkhoff's generator moves objects along the edges of a real road network.  This module
//! builds a synthetic road network — a perturbed grid with a fraction of edges removed and a
//! few diagonal shortcuts added — and moves objects along shortest paths between randomly
//! chosen nodes, at per-object speed classes.  The resulting trajectories exhibit the
//! properties the safe-region algorithms are sensitive to: piecewise-straight movement, turns
//! at intersections, and heterogeneous speeds.

use std::collections::BinaryHeap;

use mpn_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trajectory::Trajectory;
use crate::{DEFAULT_DOMAIN, DEFAULT_SPEED_LIMIT, DEFAULT_TIMESTAMPS};

/// Configuration of the synthetic road network and of the objects moving on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Side length of the square domain.
    pub domain: f64,
    /// Number of grid nodes per side (the network has roughly `grid²` nodes).
    pub grid: usize,
    /// Random perturbation of node positions, as a fraction of the grid cell size.
    pub jitter: f64,
    /// Fraction of grid edges removed (dead ends, rivers, …).
    pub removal_fraction: f64,
    /// Number of extra diagonal shortcut edges added.
    pub shortcuts: usize,
    /// Maximum object speed `V` in domain units per timestamp.
    pub speed_limit: f64,
    /// Number of timestamps per trajectory.
    pub timestamps: usize,
    /// Number of speed classes (Brinkhoff's vehicle classes); class `c` travels at
    /// `(c + 1) / classes · V`.
    pub speed_classes: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            domain: DEFAULT_DOMAIN,
            grid: 24,
            jitter: 0.3,
            removal_fraction: 0.12,
            shortcuts: 40,
            speed_limit: DEFAULT_SPEED_LIMIT,
            timestamps: DEFAULT_TIMESTAMPS,
            speed_classes: 4,
        }
    }
}

/// A synthetic road network: nodes with planar coordinates and undirected weighted edges.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    /// Adjacency list: `adjacency[u]` holds `(v, length)` pairs.
    adjacency: Vec<Vec<(usize, f64)>>,
    config: NetworkConfig,
}

impl RoadNetwork {
    /// Generates a road network from the configuration (deterministic per seed).
    #[must_use]
    pub fn generate(config: &NetworkConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.grid.max(2);
        let cell = config.domain / (n - 1) as f64;

        let mut nodes = Vec::with_capacity(n * n);
        for iy in 0..n {
            for ix in 0..n {
                let jx = (rng.gen::<f64>() - 0.5) * 2.0 * config.jitter * cell;
                let jy = (rng.gen::<f64>() - 0.5) * 2.0 * config.jitter * cell;
                nodes.push(Point::new(
                    (ix as f64 * cell + jx).clamp(0.0, config.domain),
                    (iy as f64 * cell + jy).clamp(0.0, config.domain),
                ));
            }
        }

        let mut network = Self { nodes, adjacency: vec![Vec::new(); n * n], config: *config };
        let index = |ix: usize, iy: usize| iy * n + ix;

        // Grid edges, with a fraction removed.
        for iy in 0..n {
            for ix in 0..n {
                if ix + 1 < n && rng.gen::<f64>() >= config.removal_fraction {
                    network.add_edge(index(ix, iy), index(ix + 1, iy));
                }
                if iy + 1 < n && rng.gen::<f64>() >= config.removal_fraction {
                    network.add_edge(index(ix, iy), index(ix, iy + 1));
                }
            }
        }
        // Diagonal shortcuts.
        for _ in 0..config.shortcuts {
            let ix = rng.gen_range(0..n - 1);
            let iy = rng.gen_range(0..n - 1);
            network.add_edge(index(ix, iy), index(ix + 1, iy + 1));
        }
        // Guarantee full connectivity.  The removal pass above can leave whole disjoint
        // components behind (not just degree-0 nodes), and with `removal_fraction >= 1.0`
        // and no shortcuts *every* node starts isolated — a zero-edge network on which
        // every shortest-path query fails.  Bridge everything into node 0's component.
        network.connect_components();
        network
    }

    /// Bridges every component disconnected from node 0 into one connected network.
    ///
    /// BFS from node 0 marks the reached set; while any node is unreached, the unreached
    /// node closest to the reached set is bridged to its nearest reached node and its whole
    /// component is flooded in.  This is a Prim-style pass — deterministic (distance ties
    /// break on the lowest node index), uses no randomness (so the generator's RNG stream is
    /// untouched), and O(n²) total regardless of how fragmented the edge pass left the grid.
    fn connect_components(&mut self) {
        let n = self.nodes.len();
        if n == 0 {
            return;
        }
        let mut reached = vec![false; n];
        // `closest[v]`: for an unreached `v`, the nearest reached node and its distance,
        // relaxed as nodes join the reached set.
        let mut closest: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); n];
        let mut frontier = vec![0usize];
        reached[0] = true;
        loop {
            // Flood the newly attached component, relaxing the remaining unreached nodes.
            while let Some(u) = frontier.pop() {
                for &(v, _) in &self.adjacency[u] {
                    if !reached[v] {
                        reached[v] = true;
                        frontier.push(v);
                    }
                }
                for v in 0..n {
                    if !reached[v] {
                        let d = self.nodes[v].dist(self.nodes[u]);
                        if d < closest[v].0 {
                            closest[v] = (d, u);
                        }
                    }
                }
            }
            let Some(next) = (0..n)
                .filter(|&v| !reached[v])
                .min_by(|&a, &b| closest[a].0.total_cmp(&closest[b].0))
            else {
                break;
            };
            self.add_edge(next, closest[next].1);
            reached[next] = true;
            frontier.push(next);
        }
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        if a == b || self.adjacency[a].iter().any(|(v, _)| *v == b) {
            return;
        }
        let len = self.nodes[a].dist(self.nodes[b]).max(1e-9);
        self.adjacency[a].push((b, len));
        self.adjacency[b].push((a, len));
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Coordinates of a node.
    #[must_use]
    pub fn node(&self, id: usize) -> Point {
        self.nodes[id]
    }

    /// Shortest path between two nodes (Dijkstra).  Returns the node sequence including both
    /// endpoints, or `None` when they are disconnected.
    #[must_use]
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        #[derive(PartialEq)]
        struct Item(f64, usize);
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.total_cmp(&self.0) // min-heap
            }
        }

        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(Item(0.0, from));
        while let Some(Item(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == to {
                break;
            }
            for &(v, w) in &self.adjacency[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Item(nd, v));
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Generates one network-constrained trajectory for an object of the given speed class.
    ///
    /// The object repeatedly picks a random reachable destination node, follows the shortest
    /// path to it at its class speed, and continues until `timestamps` locations are produced.
    #[must_use]
    pub fn trajectory(&self, seed: u64, speed_class: usize) -> Trajectory {
        let config = &self.config;
        let classes = config.speed_classes.max(1);
        let class = speed_class % classes;
        let speed = config.speed_limit * (class + 1) as f64 / classes as f64;

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
        let mut points = Vec::with_capacity(config.timestamps);
        let mut current = rng.gen_range(0..self.nodes.len());
        let mut pos = self.nodes[current];
        points.push(pos);

        let mut path: Vec<usize> = Vec::new();
        let mut path_idx = 0usize;
        while points.len() < config.timestamps.max(2) {
            if path_idx >= path.len() {
                // Pick a new reachable destination.
                let mut attempts = 0;
                loop {
                    let dest = rng.gen_range(0..self.nodes.len());
                    attempts += 1;
                    if dest != current {
                        if let Some(p) = self.shortest_path(current, dest) {
                            path = p;
                            path_idx = 1; // path[0] == current
                            break;
                        }
                    }
                    if attempts > 50 {
                        // Extremely fragmented network: stay put for this step.
                        path = vec![current];
                        path_idx = 1;
                        break;
                    }
                }
            }
            let target_node = path.get(path_idx).copied().unwrap_or(current);
            let target = self.nodes[target_node];
            let step = speed.min(config.speed_limit);
            if pos.dist(target) <= step {
                pos = target;
                current = target_node;
                path_idx += 1;
            } else if let Some(dir) = pos.direction_to(target) {
                pos = pos + dir * step;
            } else {
                path_idx += 1;
            }
            points.push(pos);
        }
        Trajectory::new(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::tests::longest_step;

    /// Number of undirected edges.
    fn edges(net: &RoadNetwork) -> usize {
        net.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    fn small_config() -> NetworkConfig {
        NetworkConfig {
            domain: 1000.0,
            grid: 10,
            timestamps: 1500,
            speed_limit: 10.0,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn network_generation_is_deterministic_and_connected_enough() {
        let config = small_config();
        let a = RoadNetwork::generate(&config, 5);
        let b = RoadNetwork::generate(&config, 5);
        assert_eq!(a.node_count(), 100);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(edges(&a), edges(&b));
        assert!(edges(&a) > 100, "a 10x10 grid keeps most of its ~180 edges");
        // No isolated nodes after the connectivity pass.
        for v in 0..a.node_count() {
            assert!(!a.adjacency[v].is_empty(), "node {v} is isolated");
        }
    }

    #[test]
    fn shortest_paths_are_consistent() {
        let net = RoadNetwork::generate(&small_config(), 9);
        let path = net.shortest_path(0, net.node_count() - 1);
        if let Some(path) = path {
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), net.node_count() - 1);
            // Consecutive path nodes must be adjacent.
            for w in path.windows(2) {
                assert!(net.adjacency[w[0]].iter().any(|(v, _)| *v == w[1]));
            }
        }
        // A node is trivially reachable from itself.
        assert_eq!(net.shortest_path(3, 3), Some(vec![3]));
    }

    #[test]
    fn trajectories_follow_the_speed_class_and_stay_in_the_domain() {
        let net = RoadNetwork::generate(&small_config(), 2);
        for class in 0..4 {
            let t = net.trajectory(100 + class as u64, class);
            assert_eq!(t.len(), 1500);
            let class_speed = 10.0 * (class + 1) as f64 / 4.0;
            assert!(longest_step(&t) <= class_speed + 1e-9, "class {class} exceeded its speed");
            assert!(t
                .points()
                .iter()
                .all(|p| (0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y)));
        }
    }

    #[test]
    fn faster_classes_cover_more_ground() {
        let net = RoadNetwork::generate(&small_config(), 2);
        let slow = net.trajectory(7, 0);
        let fast = net.trajectory(7, 3);
        assert!(fast.arc_length() > slow.arc_length());
    }

    #[test]
    fn trajectories_turn_at_nodes_not_in_free_space() {
        // Network movement is piecewise straight: between turns the displacement direction is
        // constant.  Count the direction changes; they should be far fewer than the steps.
        let net = RoadNetwork::generate(&small_config(), 4);
        let t = net.trajectory(11, 2);
        let pts = t.points();
        let mut turns = 0;
        let mut moves = 0;
        for w in pts.windows(3) {
            let h1 = mpn_geom::heading(w[0], w[1]);
            let h2 = mpn_geom::heading(w[1], w[2]);
            if let (Some(a), Some(b)) = (h1, h2) {
                moves += 1;
                if mpn_geom::angle_diff(a, b) > 1e-6 {
                    turns += 1;
                }
            }
        }
        assert!(moves > 500);
        assert!(
            (turns as f64) < 0.5 * moves as f64,
            "network movement should be mostly straight ({turns}/{moves} turns)"
        );
    }

    /// The fully degenerate corner (smallest grid, every edge removed, no shortcuts): 4 nodes
    /// need at least 3 bridges, and the repair adds exactly a spanning tree.
    #[test]
    fn degenerate_network_repair_adds_a_spanning_tree() {
        let config = NetworkConfig {
            grid: 2,
            removal_fraction: 1.0,
            shortcuts: 0,
            jitter: 0.0,
            domain: 100.0,
            timestamps: 8,
            ..NetworkConfig::default()
        };
        for seed in 0..16 {
            let network = RoadNetwork::generate(&config, seed);
            assert_eq!((network.node_count(), edges(&network)), (4, 3), "seed {seed}");
        }
    }
}
