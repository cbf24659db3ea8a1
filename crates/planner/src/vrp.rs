//! Vehicle routing with energy constraints.
//!
//! AnDrone's flight planner assigns virtual drones to physical drone
//! flights using the drone-delivery VRP of Dorling et al. (paper
//! Section 4): waypoints play the role of delivery locations, leg
//! costs come from the multirotor energy model, and the energy each
//! virtual drone is allotted at its waypoints is added to the route's
//! energy cost. The objective is to minimize completion time subject
//! to a fleet-size constraint, with battery capacity as a hard
//! feasibility constraint.
//!
//! Dorling et al. solve the VRP with simulated annealing; so do we.
//! The algorithm treats all waypoints independently — it may visit
//! waypoints of one virtual drone in the middle of another virtual
//! drone's set, and cannot honor user-prescribed orderings. The paper
//! calls this out as a limitation, and tests here pin the behaviour.

use crate::constraints::PartyIndex;
use androne_hal::GeoPoint;
use androne_energy::DorlingModel;
use rand::rngs::SmallRng;
use rand::Rng;

/// One waypoint visit to schedule.
#[derive(Debug, Clone)]
pub struct WaypointTask {
    /// Owning virtual drone (label only; the solver ignores it).
    pub owner: String,
    /// Where the task happens.
    pub position: GeoPoint,
    /// Energy allotted to the virtual drone at this waypoint, J.
    pub service_energy_j: f64,
    /// Maximum service time at this waypoint, s.
    pub service_time_s: f64,
}

/// The routing problem.
#[derive(Debug, Clone)]
pub struct VrpProblem {
    /// Launch/return base.
    pub depot: GeoPoint,
    /// Waypoint tasks to serve.
    pub tasks: Vec<WaypointTask>,
    /// Maximum number of physical drones.
    pub fleet_size: usize,
    /// Plannable energy per drone battery, J.
    pub battery_budget_j: f64,
    /// The energy model.
    pub model: DorlingModel,
}

/// One drone's route: task indices in visit order.
#[derive(Debug, PartialEq, Eq)]
pub struct Route {
    /// Indices into [`VrpProblem::tasks`].
    pub stops: Vec<usize>,
}

// Written out so `clone_from` reuses the stop buffer; the annealer
// refills its candidate with it every iteration.
impl Clone for Route {
    fn clone(&self) -> Self {
        Route {
            stops: self.stops.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.stops.clone_from(&source.stops);
    }
}

/// A solution: one route per drone used.
#[derive(Debug, PartialEq, Eq)]
pub struct VrpSolution {
    /// Routes (at most `fleet_size`).
    pub routes: Vec<Route>,
}

impl Clone for VrpSolution {
    fn clone(&self) -> Self {
        VrpSolution {
            routes: self.routes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.routes.clone_from(&source.routes);
    }
}

/// Why a solution is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum VrpError {
    /// A task is visited more or fewer than exactly once.
    CoverageViolation,
    /// A route exceeds the battery budget by the given joules.
    BatteryViolation(f64),
    /// More routes than the fleet allows.
    FleetViolation,
}

/// A leg's `(time_s, energy_j)` between two route nodes: node `0` is
/// the depot and node `i + 1` is task `i`.
type Leg = (f64, f64);

/// Every directed leg of a problem, priced once. The annealer prices
/// each candidate with table lookups instead of re-deriving haversine
/// distances and leg costs over the same fixed positions. The entries
/// are the values [`VrpProblem::leg`] returns, so table-priced costs
/// equal [`VrpProblem::cost`] bit for bit.
struct LegTable {
    nodes: usize,
    legs: Vec<Leg>,
}

impl LegTable {
    fn new(problem: &VrpProblem) -> Self {
        let nodes = problem.tasks.len() + 1;
        let legs = (0..nodes)
            .flat_map(|a| (0..nodes).map(move |b| problem.leg(a, b)))
            .collect();
        LegTable { nodes, legs }
    }

    fn leg(&self, from: usize, to: usize) -> Leg {
        self.legs[from * self.nodes + to]
    }
}

impl VrpProblem {
    fn node(&self, n: usize) -> &GeoPoint {
        match n.checked_sub(1) {
            Some(task) => &self.tasks[task].position,
            None => &self.depot,
        }
    }

    /// Prices the leg from node `from` to node `to` (node `0` is the
    /// depot, node `i + 1` is task `i`).
    fn leg(&self, from: usize, to: usize) -> Leg {
        let d = self.node(from).distance_m(self.node(to));
        (self.model.leg_time_s(d), self.model.leg_energy_j(d, 0.0))
    }

    /// A route's `(time_s, energy_j)`: depot → stops → depot travel
    /// plus each stop's service time and energy, with legs priced by
    /// `leg`.
    fn route_totals(&self, route: &Route, leg: &impl Fn(usize, usize) -> Leg) -> (f64, f64) {
        let mut time = 0.0;
        let mut energy = 0.0;
        let mut here = 0;
        for &i in &route.stops {
            let t = &self.tasks[i];
            let (leg_t, leg_e) = leg(here, i + 1);
            time += leg_t;
            time += t.service_time_s;
            energy += leg_e;
            energy += t.service_energy_j;
            here = i + 1;
        }
        let (leg_t, leg_e) = leg(here, 0);
        (time + leg_t, energy + leg_e)
    }

    /// Total energy of a route: depot → stops → depot travel plus
    /// the service energy at each stop.
    pub fn route_energy_j(&self, route: &Route) -> f64 {
        self.route_totals(route, &|a, b| self.leg(a, b)).1
    }

    /// Total time of a route: travel plus service times.
    pub fn route_time_s(&self, route: &Route) -> f64 {
        self.route_totals(route, &|a, b| self.leg(a, b)).0
    }

    /// Solution cost: makespan, plus a small total-time tiebreak,
    /// plus heavy penalties for battery violations.
    pub fn cost(&self, sol: &VrpSolution) -> f64 {
        self.priced_cost(sol, &|a, b| self.leg(a, b))
    }

    /// [`VrpProblem::cost`] with legs priced by `leg`.
    fn priced_cost(&self, sol: &VrpSolution, leg: &impl Fn(usize, usize) -> Leg) -> f64 {
        let mut makespan = 0.0f64;
        let mut total = 0.0;
        let mut penalty = 0.0;
        for route in &sol.routes {
            let (t, e) = self.route_totals(route, leg);
            makespan = makespan.max(t);
            total += t;
            if e > self.battery_budget_j {
                penalty += 10_000.0 + (e - self.battery_budget_j);
            }
        }
        makespan + 0.05 * total + penalty
    }

    /// Validates coverage, battery, and fleet constraints.
    pub fn validate(&self, sol: &VrpSolution) -> Result<(), VrpError> {
        if sol.routes.len() > self.fleet_size {
            return Err(VrpError::FleetViolation);
        }
        let mut seen = vec![0u32; self.tasks.len()];
        for route in &sol.routes {
            for &i in &route.stops {
                if i >= self.tasks.len() {
                    return Err(VrpError::CoverageViolation);
                }
                seen[i] += 1;
            }
        }
        if seen.iter().any(|&c| c != 1) {
            return Err(VrpError::CoverageViolation);
        }
        for route in &sol.routes {
            let e = self.route_energy_j(route);
            if e > self.battery_budget_j {
                return Err(VrpError::BatteryViolation(e - self.battery_budget_j));
            }
        }
        Ok(())
    }

    /// Greedy nearest-neighbour construction, opening a new route
    /// when the battery budget would be exceeded.
    pub fn greedy(&self) -> VrpSolution {
        let mut unvisited: Vec<usize> = (0..self.tasks.len()).collect();
        let mut routes: Vec<Route> = Vec::new();
        while !unvisited.is_empty() {
            let mut route = Route { stops: Vec::new() };
            let mut here = self.depot;
            loop {
                // Nearest unvisited stop that keeps the route feasible.
                let mut best: Option<(usize, f64)> = None;
                for (pos, &task) in unvisited.iter().enumerate() {
                    let d = here.distance_m(&self.tasks[task].position);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        let mut candidate = route.clone();
                        candidate.stops.push(task);
                        if self.route_energy_j(&candidate) <= self.battery_budget_j {
                            best = Some((pos, d));
                        }
                    }
                }
                match best {
                    Some((pos, _)) => {
                        let task = unvisited.remove(pos);
                        here = self.tasks[task].position;
                        route.stops.push(task);
                    }
                    None => break,
                }
            }
            if route.stops.is_empty() {
                // No single stop fits the battery: place it alone
                // (validation will flag the battery violation).
                route.stops.push(unvisited.remove(0));
            }
            routes.push(route);
        }
        // Respect the fleet-size cap by merging the shortest routes.
        while routes.len() > self.fleet_size.max(1) {
            routes.sort_by(|a, b| self.route_time_s(a).total_cmp(&self.route_time_s(b)));
            let short = routes.remove(0);
            routes[0].stops.extend(short.stops);
        }
        VrpSolution { routes }
    }

    /// Simulated-annealing solve (Dorling et al.'s approach).
    pub fn solve(&self, iterations: usize, seed: u64) -> VrpSolution {
        self.solve_constrained(iterations, seed, &crate::constraints::RouteConstraints::none())
    }

    /// Simulated-annealing solve with waypoint ordering/grouping
    /// constraints — the paper's stated future work, implemented as
    /// an extension. Every candidate the annealer evaluates is first
    /// repaired to feasibility, so the returned solution always
    /// satisfies `constraints`.
    pub fn solve_constrained(
        &self,
        iterations: usize,
        seed: u64,
        constraints: &crate::constraints::RouteConstraints,
    ) -> VrpSolution {
        let mut rng = androne_simkern::stream_rng(seed);
        let parties = PartyIndex::new(&constraints.parties);
        let mut current = self.greedy();
        if !constraints.is_empty() {
            constraints.repair_with(&mut current, &parties);
        }
        // Ensure every allowed route exists so moves can use them.
        while current.routes.len() < self.fleet_size {
            current.routes.push(Route { stops: Vec::new() });
        }
        if self.tasks.is_empty() {
            return VrpSolution { routes: Vec::new() };
        }
        let table = LegTable::new(self);
        let cost = |sol: &VrpSolution| self.priced_cost(sol, &|a, b| table.leg(a, b));
        let mut best = current.clone();
        let mut cur_cost = cost(&current);
        let mut best_cost = cur_cost;
        let t0 = (cur_cost * 0.2).max(1.0);
        // Reused across iterations: `clone_from` refills its routes in
        // place, and an accepted candidate swaps buffers with
        // `current` instead of being dropped.
        let mut cand = current.clone();
        for iter in 0..iterations {
            let temp = t0 * (1.0 - iter as f64 / iterations as f64).max(1e-3);
            cand.clone_from(&current);
            match rng.gen_range(0..3) {
                0 => relocate(&mut cand, &mut rng),
                1 => swap(&mut cand, &mut rng),
                _ => two_opt(&mut cand, &mut rng),
            }
            if !constraints.is_empty() {
                constraints.repair_with(&mut cand, &parties);
                while cand.routes.len() < self.fleet_size {
                    cand.routes.push(Route { stops: Vec::new() });
                }
            }
            let cand_cost = cost(&cand);
            let accept = cand_cost < cur_cost
                || rng.gen::<f64>() < ((cur_cost - cand_cost) / temp).exp();
            if accept {
                std::mem::swap(&mut current, &mut cand);
                cur_cost = cand_cost;
                if cur_cost < best_cost {
                    best.clone_from(&current);
                    best_cost = cur_cost;
                }
            }
        }
        best.routes.retain(|r| !r.stops.is_empty());
        best
    }
}

/// A uniformly drawn non-empty route: one draw over the non-empty
/// count, then the k-th non-empty route by index.
fn nonempty_route(sol: &VrpSolution, rng: &mut SmallRng) -> Option<usize> {
    let nonempty = sol.routes.iter().filter(|r| !r.stops.is_empty()).count();
    if nonempty == 0 {
        return None;
    }
    let k = rng.gen_range(0..nonempty);
    sol.routes
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.stops.is_empty())
        .nth(k)
        .map(|(i, _)| i)
}

/// Move one stop to a random position in a random route.
fn relocate(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let Some(from) = nonempty_route(sol, rng) else {
        return;
    };
    let idx = rng.gen_range(0..sol.routes[from].stops.len());
    let stop = sol.routes[from].stops.remove(idx);
    let to = rng.gen_range(0..sol.routes.len());
    let at = if sol.routes[to].stops.is_empty() {
        0
    } else {
        rng.gen_range(0..=sol.routes[to].stops.len())
    };
    sol.routes[to].stops.insert(at, stop);
}

/// Swap two stops across (or within) routes.
fn swap(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let (Some(a), Some(b)) = (nonempty_route(sol, rng), nonempty_route(sol, rng)) else {
        return;
    };
    let ia = rng.gen_range(0..sol.routes[a].stops.len());
    let ib = rng.gen_range(0..sol.routes[b].stops.len());
    if a == b {
        sol.routes[a].stops.swap(ia, ib);
    } else {
        let tmp = sol.routes[a].stops[ia];
        sol.routes[a].stops[ia] = sol.routes[b].stops[ib];
        sol.routes[b].stops[ib] = tmp;
    }
}

/// Reverse a random segment within one route.
fn two_opt(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let Some(r) = nonempty_route(sol, rng) else {
        return;
    };
    let n = sol.routes[r].stops.len();
    if n < 2 {
        return;
    }
    let i = rng.gen_range(0..n - 1);
    let j = rng.gen_range(i + 1..n);
    sol.routes[r].stops[i..=j].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPOT: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn task(owner: &str, north: f64, east: f64, energy: f64) -> WaypointTask {
        WaypointTask {
            owner: owner.into(),
            position: DEPOT.offset_m(north, east, 15.0),
            service_energy_j: energy,
            service_time_s: 60.0,
        }
    }

    fn problem(tasks: Vec<WaypointTask>, fleet: usize) -> VrpProblem {
        VrpProblem {
            depot: DEPOT,
            tasks,
            fleet_size: fleet,
            battery_budget_j: 160_000.0,
            model: DorlingModel::f450_prototype(),
        }
    }

    #[test]
    fn greedy_covers_every_task() {
        let p = problem(
            vec![
                task("a", 100.0, 0.0, 5_000.0),
                task("a", 200.0, 50.0, 5_000.0),
                task("b", -150.0, 80.0, 8_000.0),
                task("c", 40.0, -120.0, 3_000.0),
            ],
            2,
        );
        let sol = p.greedy();
        p.validate(&sol).unwrap();
    }

    #[test]
    fn annealing_never_worsens_greedy() {
        let p = problem(
            vec![
                task("a", 100.0, 0.0, 5_000.0),
                task("a", 200.0, 50.0, 5_000.0),
                task("b", -150.0, 80.0, 8_000.0),
                task("c", 40.0, -120.0, 3_000.0),
                task("d", 300.0, 300.0, 2_000.0),
                task("e", -80.0, -200.0, 4_000.0),
            ],
            2,
        );
        let greedy = p.greedy();
        let solved = p.solve(20_000, 7);
        p.validate(&solved).unwrap();
        assert!(p.cost(&solved) <= p.cost(&greedy) + 1e-9);
    }

    #[test]
    fn annealing_finds_obvious_clustering() {
        // Two tight clusters far apart; with two drones the optimal
        // split is one cluster each.
        let mut tasks = Vec::new();
        for i in 0..4 {
            tasks.push(task("west", 50.0 + i as f64 * 10.0, -2_000.0, 1_000.0));
            tasks.push(task("east", 50.0 + i as f64 * 10.0, 2_000.0, 1_000.0));
        }
        let p = problem(tasks, 2);
        let sol = p.solve(30_000, 11);
        p.validate(&sol).unwrap();
        assert_eq!(sol.routes.len(), 2);
        for route in &sol.routes {
            let easts: Vec<f64> = route
                .stops
                .iter()
                .map(|&i| p.tasks[i].position.longitude)
                .collect();
            let all_west = easts.iter().all(|&e| e < p.depot.longitude);
            let all_east = easts.iter().all(|&e| e > p.depot.longitude);
            assert!(all_west || all_east, "clusters are not mixed: {easts:?}");
        }
    }

    #[test]
    fn waypoint_energy_allotments_count_against_battery() {
        let mut p = problem(vec![task("a", 100.0, 0.0, 0.0)], 1);
        let bare = p.route_energy_j(&Route { stops: vec![0] });
        p.tasks[0].service_energy_j = 45_000.0;
        let loaded = p.route_energy_j(&Route { stops: vec![0] });
        assert!((loaded - bare - 45_000.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_battery_is_flagged() {
        let mut p = problem(vec![task("a", 100.0, 0.0, 500_000.0)], 1);
        p.battery_budget_j = 100_000.0;
        let sol = p.greedy();
        assert!(matches!(
            p.validate(&sol),
            Err(VrpError::BatteryViolation(_))
        ));
    }

    #[test]
    fn owners_waypoints_may_interleave() {
        // The paper's stated limitation: the algorithm treats
        // waypoints independently, so one owner's waypoints can be
        // visited in the middle of another's. Construct a geometry
        // where interleaving is optimal and check the solver uses it.
        let tasks = vec![
            task("a", 100.0, 0.0, 0.0),
            task("b", 200.0, 0.0, 0.0),
            task("a", 300.0, 0.0, 0.0),
        ];
        let p = problem(tasks, 1);
        let sol = p.solve(20_000, 3);
        p.validate(&sol).unwrap();
        let order: Vec<&str> = sol.routes[0]
            .stops
            .iter()
            .map(|&i| p.tasks[i].owner.as_str())
            .collect();
        assert!(
            order == ["a", "b", "a"] || order == ["a", "b", "a"].iter().rev().cloned().collect::<Vec<_>>(),
            "optimal route interleaves owners: {order:?}"
        );
    }

    #[test]
    fn constrained_solve_preserves_user_ordering() {
        // The extension beyond the paper: waypoints 0 -> 1 -> 2 of
        // owner "a" must run in order even though the unconstrained
        // optimum reverses them.
        use crate::constraints::RouteConstraints;
        let tasks = vec![
            task("a", 300.0, 0.0, 0.0),
            task("a", 200.0, 0.0, 0.0),
            task("a", 100.0, 0.0, 0.0),
            task("b", 150.0, 50.0, 0.0),
        ];
        let p = problem(tasks, 1);
        let constraints = RouteConstraints::none().in_order(&[0, 1, 2]);
        let sol = p.solve_constrained(20_000, 9, &constraints);
        p.validate(&sol).unwrap();
        constraints.check(&sol).unwrap();
        let route = &sol.routes[0].stops;
        let pos = |t: usize| route.iter().position(|&s| s == t).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2), "{route:?}");
    }

    #[test]
    fn constrained_solve_keeps_groups_contiguous() {
        use crate::constraints::RouteConstraints;
        // Owner "a" owns tasks 0 and 3, geographically on opposite
        // sides of owner "b"'s task: unconstrained solving would
        // interleave; grouping forbids it.
        let tasks = vec![
            task("a", 100.0, 0.0, 0.0),
            task("b", 200.0, 0.0, 0.0),
            task("b", 250.0, 30.0, 0.0),
            task("a", 300.0, 0.0, 0.0),
        ];
        let p = problem(tasks, 1);
        let constraints = RouteConstraints::none().grouped(&[0, 3]);
        let sol = p.solve_constrained(20_000, 10, &constraints);
        p.validate(&sol).unwrap();
        constraints.check(&sol).unwrap();
    }

    #[test]
    fn fleet_size_is_respected() {
        let tasks: Vec<WaypointTask> = (0..8)
            .map(|i| task("x", 50.0 * (i + 1) as f64, 30.0 * i as f64, 1_000.0))
            .collect();
        let p = problem(tasks, 2);
        let sol = p.solve(15_000, 5);
        assert!(sol.routes.len() <= 2);
        p.validate(&sol).unwrap();
    }

    #[test]
    fn empty_problem_solves_to_empty() {
        let p = problem(vec![], 2);
        let sol = p.solve(100, 1);
        assert!(sol.routes.is_empty());
        p.validate(&sol).unwrap();
    }

    /// One pass of the cost as first written: a route's energy (or
    /// time), each leg priced from geometry.
    fn reference_pass(p: &VrpProblem, route: &Route, energy: bool) -> f64 {
        let price = |d: f64| {
            if energy {
                p.model.leg_energy_j(d, 0.0)
            } else {
                p.model.leg_time_s(d)
            }
        };
        let mut acc = 0.0;
        let mut here = p.depot;
        for &i in &route.stops {
            let t = &p.tasks[i];
            acc += price(here.distance_m(&t.position));
            acc += if energy {
                t.service_energy_j
            } else {
                t.service_time_s
            };
            here = t.position;
        }
        acc + price(here.distance_m(&p.depot))
    }

    /// The cost as first written, with separate time and energy
    /// passes. Kept as the reference both pricing paths must match bit
    /// for bit.
    fn reference_cost(p: &VrpProblem, sol: &VrpSolution) -> f64 {
        let mut makespan = 0.0f64;
        let mut total = 0.0;
        let mut penalty = 0.0;
        for route in &sol.routes {
            let t = reference_pass(p, route, false);
            makespan = makespan.max(t);
            total += t;
            let e = reference_pass(p, route, true);
            if e > p.battery_budget_j {
                penalty += 10_000.0 + (e - p.battery_budget_j);
            }
        }
        makespan + 0.05 * total + penalty
    }

    #[test]
    fn table_priced_cost_is_bit_identical_to_cost() {
        let mut rng = androne_simkern::stream_rng(0x7AB1E);
        let mut penalized = 0;
        for case in 0..64 {
            let n = rng.gen_range(1..24);
            let tasks: Vec<WaypointTask> = (0..n)
                .map(|_| {
                    let mut t = task(
                        "x",
                        rng.gen_range(-900.0..900.0),
                        rng.gen_range(-900.0..900.0),
                        rng.gen_range(0.0..30_000.0),
                    );
                    t.position.altitude = rng.gen_range(5.0..60.0);
                    t.service_time_s = rng.gen_range(0.0..120.0);
                    t
                })
                .collect();
            let mut p = problem(tasks, 4);
            // Every other case gets a budget tight enough that some
            // routes pay the battery penalty.
            if case % 2 == 1 {
                p.battery_budget_j = rng.gen_range(5_000.0..60_000.0);
            }
            let table = LegTable::new(&p);
            for _ in 0..8 {
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let mut routes = vec![Route { stops: Vec::new() }; rng.gen_range(1..6)];
                for stop in order {
                    let r = rng.gen_range(0..routes.len());
                    routes[r].stops.push(stop);
                }
                let sol = VrpSolution { routes };
                if matches!(p.validate(&sol), Err(VrpError::BatteryViolation(_))) {
                    penalized += 1;
                }
                let priced = p.priced_cost(&sol, &|a, b| table.leg(a, b));
                let reference = reference_cost(&p, &sol).to_bits();
                assert_eq!(priced.to_bits(), reference, "case {case}: {sol:?}");
                assert_eq!(p.cost(&sol).to_bits(), reference, "case {case}: {sol:?}");
            }
        }
        assert!(
            penalized > 16,
            "only {penalized} solutions exercised the penalty"
        );
    }

    /// The cloud's planning problem in miniature: fourteen tenants
    /// with two waypoints each, three drones, one capacity party per
    /// tenant capped at the board's virtual-drone limit.
    fn party_capped_fleet() -> (VrpProblem, crate::constraints::RouteConstraints) {
        use crate::constraints::RouteConstraints;
        let mut tasks = Vec::new();
        let mut parties = Vec::new();
        for i in 0..14u32 {
            let north = f64::from((i * 37) % 11) * 40.0 - 200.0;
            let east = f64::from((i * 53) % 13) * 35.0 - 210.0;
            let energy = 4_000.0 + f64::from(i % 5) * 1_500.0;
            let owner = format!("vd{i}");
            let mut first = task(&owner, north, east, energy);
            first.service_time_s = 40.0 + f64::from(i % 4) * 10.0;
            let mut second = task(&owner, north + 60.0, east - 45.0, energy);
            second.service_time_s = first.service_time_s;
            parties.push(vec![tasks.len(), tasks.len() + 1]);
            tasks.push(first);
            tasks.push(second);
        }
        let mut p = problem(tasks, 3);
        p.battery_budget_j = androne_energy::BatteryPack::turnigy_3s_5000().plannable_j();
        let cap = androne_simkern::BoardMemoryProfile::rpi3().max_vdrones();
        (
            p,
            RouteConstraints::none().with_party_capacity(parties, cap),
        )
    }

    /// Recorded before the annealer priced candidates from a leg
    /// table: the cloud's exact solve call must keep returning these
    /// routes.
    #[test]
    fn party_capped_solve_is_pinned() {
        let (p, constraints) = party_capped_fleet();
        let sol = p.solve_constrained(20_000, 0xA17D, &constraints);
        let routes: Vec<Vec<usize>> = sol.routes.iter().map(|r| r.stops.clone()).collect();
        assert_eq!(
            routes,
            vec![
                vec![11, 10, 21, 20, 23],
                vec![19, 18, 24, 25, 15, 14],
                vec![16, 17, 5, 27, 26, 4],
                vec![22, 12, 13, 9, 8],
                vec![6, 0, 1, 7, 2, 3],
            ]
        );
        assert_eq!(p.cost(&sol).to_bits(), 4_648_552_596_711_191_052);
    }
}
