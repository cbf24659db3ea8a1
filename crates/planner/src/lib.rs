//! # androne-planner
//!
//! The cloud-side flight planner of the AnDrone reproduction (paper
//! Section 4): assigns virtual drones to physical flights with the
//! Dorling et al. VRP and autonomously pilots drones between
//! waypoints.
//!
//! - [`vrp`]: the energy-constrained vehicle routing problem with a
//!   simulated-annealing solver (including the paper's stated
//!   limitation that waypoints of different virtual drones may
//!   interleave).
//! - [`constraints`]: waypoint ordering and grouping — the paper's
//!   stated future work, implemented as an extension
//!   ([`vrp::VrpProblem::solve_constrained`]).
//! - [`binpack`]: deterministic first-fit packing of an admitted
//!   order batch onto a large simulated fleet — the cheap shape for
//!   thousand-tenant waves where per-waypoint annealing is overkill.
//! - [`mission`]: solved routes turned into executable flight plans
//!   with ETAs and operating windows.
//! - [`pilot`]: the autonomous waypoint pilot with per-waypoint
//!   energy/time allotment enforcement.

pub mod binpack;
pub mod constraints;
pub mod mission;
pub mod pilot;
pub mod vrp;

pub use binpack::{bin_pack, PackItem, PackedFlight, Packer, Packing};
pub use constraints::{ConstraintViolation, RouteConstraints};
pub use mission::{FlightPlan, Leg};
pub use pilot::{Autopilot, PilotEvent, PILOT_CLIENT};
pub use vrp::{Route, VrpError, VrpProblem, VrpSolution, WaypointTask};
