//! # MPN — Meeting Point Notification via Independent Safe Regions
//!
//! This is the facade crate of a reproduction of
//! *"Efficient Notification of Meeting Points for Moving Groups via Independent Safe Regions"*
//! (Li, Thomsen, Yiu, Mamoulis; ICDE 2013 / TKDE 2015).
//!
//! A group of moving users wants continuous notification of the optimal meeting point among a
//! set of points of interest (POIs).  To avoid reporting every location update to the server,
//! the server hands each user an *independent safe region*: as long as every user stays inside
//! her own region, the meeting point provably does not change.
//!
//! The workspace is organised as follows and re-exported here for convenience:
//!
//! * [`geom`] — planar geometry primitives (points, rectangles, circles, tiles).
//! * [`index`] — an R-tree over the POI set and group nearest-neighbour (GNN) search.
//! * [`core`] — the safe-region algorithms (circular and tile-based, MAX and SUM objectives).
//! * [`mobility`] — trajectory and POI workload generators.
//! * [`proto`] — the wire-shaped client/server protocol (requests, responses, binary codec).
//! * [`sim`] — owned, message-driven monitoring sessions, the fleet engine, the
//!   transport-agnostic `ServerCore` and message/packet accounting.
//! * [`net`] — the one transport over that core: the readiness-driven multiplexed event
//!   loop (one thread, thousands of sockets).
//!
//! ## Quickstart
//!
//! ```
//! use mpn::core::{MpnServer, Method, Objective};
//! use mpn::geom::Point;
//! use mpn::index::RTree;
//!
//! // A few points of interest and three users.
//! let pois = vec![
//!     Point::new(2.0, 2.0),
//!     Point::new(8.0, 3.0),
//!     Point::new(5.0, 9.0),
//! ];
//! let tree = RTree::bulk_load(&pois);
//! let users = vec![Point::new(1.0, 1.0), Point::new(3.0, 2.0), Point::new(2.0, 4.0)];
//!
//! let server = MpnServer::new(&tree, Objective::Max, Method::circle());
//! let answer = server.compute(&users);
//! assert_eq!(answer.optimal_index, 0); // (2,2) is the MAX-optimal meeting point
//! assert!(answer.regions.iter().all(|r| !r.is_empty()));
//! ```

pub use mpn_core as core;
pub use mpn_geom as geom;
pub use mpn_index as index;
pub use mpn_mobility as mobility;
pub use mpn_net as net;
pub use mpn_proto as proto;
pub use mpn_sim as sim;
