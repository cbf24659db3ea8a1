//! Waypoint ordering and grouping constraints.
//!
//! **Extension beyond the paper.** The paper's planner treats all
//! waypoints independently: "users may not prescribe that waypoints
//! be traversed in a specified order and the algorithm may decide to
//! visit waypoints of one virtual drone in the middle of a set of
//! waypoints of another virtual drone. Providing a planner algorithm
//! that can support waypoint ordering and grouping is an area of
//! future work" (Section 4). This module implements that future
//! work:
//!
//! - **ordering**: pairs `(a, b)` of task indices that must ride the
//!   same route with `a` visited before `b`;
//! - **grouping**: sets of task indices that must be visited
//!   contiguously on one route (no other party's waypoints
//!   interleaved);
//! - **party capacity**: at most N distinct parties (virtual drones)
//!   per route — a physical drone's board memory hosts only so many
//!   185 MiB virtual-drone containers (Figure 12), so an
//!   energy-feasible route can still be memory-infeasible.
//!
//! Constraints are enforced by a deterministic repair pass applied
//! to every candidate the annealer evaluates, so accepted solutions
//! are always feasible; the annealer then optimizes within the
//! feasible space.

use crate::vrp::{Route, VrpSolution};

/// Ordering and grouping constraints over a problem's task indices.
#[derive(Debug, Clone, Default)]
pub struct RouteConstraints {
    /// `(before, after)`: both on one route, `before` first.
    pub ordered: Vec<(usize, usize)>,
    /// Each group's tasks ride one route, contiguously.
    pub groups: Vec<Vec<usize>>,
    /// Parties for the capacity cap: each inner vec is one party's
    /// task indices. Unlike [`groups`](Self::groups), parties carry
    /// no contiguity requirement — they only count against
    /// [`max_parties_per_route`](Self::max_parties_per_route).
    pub parties: Vec<Vec<usize>>,
    /// Maximum distinct parties one route may host (a physical
    /// drone's virtual-drone container capacity). `None` = unlimited.
    pub max_parties_per_route: Option<usize>,
}

impl RouteConstraints {
    /// No constraints (the paper's baseline behaviour).
    pub fn none() -> Self {
        RouteConstraints::default()
    }

    /// Convenience: require `tasks` to be visited in the given order
    /// (adds the chain of pairs) on one route.
    pub fn in_order(mut self, tasks: &[usize]) -> Self {
        for w in tasks.windows(2) {
            self.ordered.push((w[0], w[1]));
        }
        self
    }

    /// Convenience: require `tasks` to form a contiguous group.
    pub fn grouped(mut self, tasks: &[usize]) -> Self {
        self.groups.push(tasks.to_vec());
        self
    }

    /// Convenience: cap routes at `cap` distinct parties, where each
    /// entry of `parties` lists one party's task indices.
    pub fn with_party_capacity(mut self, parties: Vec<Vec<usize>>, cap: usize) -> Self {
        self.parties = parties;
        self.max_parties_per_route = Some(cap);
        self
    }

    /// Whether the capacity cap can actually bind: fewer parties
    /// than the cap can never violate it, so the constraint is inert
    /// and the unconstrained (bit-identical legacy) solve path is
    /// taken.
    fn capacity_active(&self) -> bool {
        self.max_parties_per_route
            .is_some_and(|cap| self.parties.len() > cap)
    }

    /// Whether there is anything to enforce.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty() && self.groups.is_empty() && !self.capacity_active()
    }

    /// Checks a solution, returning the first violation found.
    pub fn check(&self, sol: &VrpSolution) -> Result<(), ConstraintViolation> {
        // Locate each task: (route, position).
        let locate = |task: usize| -> Option<(usize, usize)> {
            for (r, route) in sol.routes.iter().enumerate() {
                if let Some(p) = route.stops.iter().position(|&s| s == task) {
                    return Some((r, p));
                }
            }
            None
        };
        for &(before, after) in &self.ordered {
            let (Some((ra, pa)), Some((rb, pb))) = (locate(before), locate(after)) else {
                continue; // Coverage violations are VrpProblem::validate's job.
            };
            if ra != rb {
                return Err(ConstraintViolation::OrderSplitAcrossRoutes { before, after });
            }
            if pa >= pb {
                return Err(ConstraintViolation::OutOfOrder { before, after });
            }
        }
        for (gi, group) in self.groups.iter().enumerate() {
            let mut positions: Vec<(usize, usize)> = group
                .iter()
                .filter_map(|&t| locate(t))
                .collect();
            if positions.is_empty() {
                continue;
            }
            let route = positions[0].0;
            if positions.iter().any(|(r, _)| *r != route) {
                return Err(ConstraintViolation::GroupSplitAcrossRoutes { group: gi });
            }
            positions.sort_by_key(|(_, p)| *p);
            let first = positions[0].1;
            let contiguous = positions
                .iter()
                .enumerate()
                .all(|(i, (_, p))| *p == first + i);
            if !contiguous {
                return Err(ConstraintViolation::GroupInterleaved { group: gi });
            }
        }
        if self.capacity_active() {
            let cap = self.max_parties_per_route.unwrap_or(usize::MAX).max(1);
            let index = PartyIndex::new(&self.parties);
            let mut hosted = Vec::new();
            for (r, route) in sol.routes.iter().enumerate() {
                index.hosted(route, &mut hosted);
                if hosted.len() > cap {
                    return Err(ConstraintViolation::RouteOverCapacity {
                        route: r,
                        parties: hosted.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Repairs a solution in place so every constraint holds.
    ///
    /// Groups are gathered first (all members moved to the route and
    /// position of the group's earliest member), then ordering pairs
    /// are fixed by moving each `after` task to just behind its
    /// `before` on the same route. The pass is deterministic and
    /// terminates because each step strictly reduces a violation
    /// count bounded by the constraint list.
    pub fn repair(&self, sol: &mut VrpSolution) {
        self.repair_with(sol, &PartyIndex::new(&self.parties));
    }

    /// [`RouteConstraints::repair`] with the party lookup built once
    /// by the caller: the annealer repairs every candidate it prices.
    pub(crate) fn repair_with(&self, sol: &mut VrpSolution, index: &PartyIndex) {
        // Gather groups contiguously.
        for group in &self.groups {
            if group.len() < 2 {
                continue;
            }
            // Find the earliest member's route/position.
            let mut anchor: Option<(usize, usize)> = None;
            for (r, route) in sol.routes.iter().enumerate() {
                if let Some(p) = route.stops.iter().position(|s| group.contains(s)) {
                    // Prefer the route holding the most members; the
                    // earliest route wins ties.
                    let count = route.stops.iter().filter(|s| group.contains(s)).count();
                    let better = match anchor {
                        None => true,
                        Some((best_r, _)) => {
                            count
                                > sol.routes[best_r]
                                    .stops
                                    .iter()
                                    .filter(|s| group.contains(s))
                                    .count()
                        }
                    };
                    if better {
                        anchor = Some((r, p));
                    }
                }
            }
            let Some((target_route, _)) = anchor else {
                continue;
            };
            // Extract every member (preserving their relative order
            // of appearance across the whole solution).
            let mut members = Vec::new();
            for route in &mut sol.routes {
                route.stops.retain(|s| {
                    if group.contains(s) {
                        members.push(*s);
                        false
                    } else {
                        true
                    }
                });
            }
            // Reinsert contiguously at the front-most feasible spot.
            let at = sol.routes[target_route]
                .stops
                .len()
                .min(self.group_anchor_pos(&sol.routes[target_route]));
            for (i, m) in members.into_iter().enumerate() {
                sol.routes[target_route].stops.insert(at + i, m);
            }
        }

        // Fix ordering pairs (iterate until stable; bounded).
        for _ in 0..self.ordered.len() + 1 {
            let mut changed = false;
            for &(before, after) in &self.ordered {
                let find = |sol: &VrpSolution, task: usize| {
                    sol.routes.iter().enumerate().find_map(|(r, route)| {
                        route.stops.iter().position(|&s| s == task).map(|p| (r, p))
                    })
                };
                let (Some((ra, pa)), Some((rb, pb))) = (find(sol, before), find(sol, after))
                else {
                    continue;
                };
                if ra == rb && pa < pb {
                    continue;
                }
                // Move `after` to behind `before` on its route. If
                // `before` sits inside a group that `after` is not
                // part of, insert past the end of that group so the
                // move cannot break contiguity.
                let task = sol.routes[rb].stops.remove(pb);
                let Some((ra, pa)) = find(sol, before) else {
                    // Degenerate `(x, x)` pair: removing `after` also
                    // removed `before`. Restore and skip.
                    sol.routes[rb].stops.insert(pb, task);
                    continue;
                };
                let mut at = pa + 1;
                if let Some(group) = self
                    .groups
                    .iter()
                    .find(|g| g.contains(&before) && !g.contains(&after))
                {
                    while at < sol.routes[ra].stops.len()
                        && group.contains(&sol.routes[ra].stops[at])
                    {
                        at += 1;
                    }
                }
                sol.routes[ra].stops.insert(at, task);
                changed = true;
            }
            if !changed {
                break;
            }
        }

        // Enforce the party-capacity cap last, so the earlier passes
        // cannot re-violate it. Each step evicts one whole party from
        // an over-capacity route onto a route that either already
        // hosts it or has spare capacity (opening a fresh route as a
        // last resort), so the total excess strictly decreases and
        // the pass terminates. Eviction appends the party's stops as
        // a block in visit order; intra-party ordering pairs survive,
        // cross-party ordering does not compose with capacity.
        if self.capacity_active() {
            let cap = self.max_parties_per_route.unwrap_or(usize::MAX).max(1);
            // Scratch for each route's hosted parties, refilled per
            // route instead of allocated.
            let mut hosted = Vec::new();
            while let Some(r) = (0..sol.routes.len()).find(|&r| {
                index.hosted(&sol.routes[r], &mut hosted);
                hosted.len() > cap
            }) {
                // `hosted` holds route `r`'s parties. Victim: the
                // hosted party with the fewest stops on this route
                // (ties to the lowest party index).
                let route = &sol.routes[r];
                let victim = hosted
                    .iter()
                    .copied()
                    .min_by_key(|&p| route.stops.iter().filter(|&&s| index.lists(s, p)).count())
                    .unwrap_or(hosted[0]);
                let moved: Vec<usize> = route
                    .stops
                    .iter()
                    .copied()
                    .filter(|&s| index.lists(s, victim))
                    .collect();
                // Destination: a route already hosting the victim,
                // else the fullest route still under the cap, else a
                // fresh route.
                let dest = (0..sol.routes.len())
                    .filter(|&d| d != r)
                    .filter_map(|d| {
                        index.hosted(&sol.routes[d], &mut hosted);
                        let has_victim = hosted.contains(&victim);
                        (has_victim || hosted.len() < cap)
                            .then_some((d, (has_victim, hosted.len(), usize::MAX - d)))
                    })
                    .max_by_key(|&(_, key)| key)
                    .map(|(d, _)| d);
                sol.routes[r].stops.retain(|s| !moved.contains(s));
                match dest {
                    Some(d) => sol.routes[d].stops.extend(moved),
                    None => sol.routes.push(Route { stops: moved }),
                }
            }
        }
        sol.routes.retain(|r| !r.stops.is_empty());
    }

    fn group_anchor_pos(&self, route: &Route) -> usize {
        // Insert groups at the end of the target route by default;
        // the annealer will slide them around via normal moves.
        route.stops.len()
    }
}

/// A constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// An ordered pair landed on different routes.
    OrderSplitAcrossRoutes {
        /// The earlier task.
        before: usize,
        /// The later task.
        after: usize,
    },
    /// An ordered pair is reversed on its route.
    OutOfOrder {
        /// The earlier task.
        before: usize,
        /// The later task.
        after: usize,
    },
    /// A group's tasks are on different routes.
    GroupSplitAcrossRoutes {
        /// Index into [`RouteConstraints::groups`].
        group: usize,
    },
    /// A group is on one route but interleaved with other tasks.
    GroupInterleaved {
        /// Index into [`RouteConstraints::groups`].
        group: usize,
    },
    /// A route hosts more parties than the capacity cap allows.
    RouteOverCapacity {
        /// Index into the solution's routes.
        route: usize,
        /// Distinct parties the route hosts.
        parties: usize,
    },
}

impl std::fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintViolation::OrderSplitAcrossRoutes { before, after } => {
                write!(f, "ordered tasks {before}->{after} split across routes")
            }
            ConstraintViolation::OutOfOrder { before, after } => {
                write!(f, "task {after} visited before {before}")
            }
            ConstraintViolation::GroupSplitAcrossRoutes { group } => {
                write!(f, "group {group} split across routes")
            }
            ConstraintViolation::GroupInterleaved { group } => {
                write!(f, "group {group} interleaved with other tasks")
            }
            ConstraintViolation::RouteOverCapacity { route, parties } => {
                write!(f, "route {route} hosts {parties} parties, over capacity")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

/// Task → party lookup for the capacity cap, so finding a route's
/// parties costs one lookup per stop instead of a scan of every
/// party's task list.
pub(crate) struct PartyIndex {
    /// `of_task[t]`: the parties listing task `t`, ascending.
    of_task: Vec<Vec<usize>>,
}

impl PartyIndex {
    pub(crate) fn new(parties: &[Vec<usize>]) -> Self {
        let mut of_task: Vec<Vec<usize>> = Vec::new();
        for (party, tasks) in parties.iter().enumerate() {
            for &t in tasks {
                if of_task.len() <= t {
                    of_task.resize_with(t + 1, Vec::new);
                }
                if of_task[t].last() != Some(&party) {
                    of_task[t].push(party);
                }
            }
        }
        PartyIndex { of_task }
    }

    /// Whether `party` lists task `task`.
    fn lists(&self, task: usize, party: usize) -> bool {
        self.of_task.get(task).is_some_and(|ps| ps.contains(&party))
    }

    /// Refills `out` with the distinct parties that have at least one
    /// stop on `route`, ascending.
    fn hosted(&self, route: &Route, out: &mut Vec<usize>) {
        out.clear();
        for &s in &route.stops {
            if let Some(ps) = self.of_task.get(s) {
                out.extend(ps);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol(routes: &[&[usize]]) -> VrpSolution {
        VrpSolution {
            routes: routes
                .iter()
                .map(|r| Route { stops: r.to_vec() })
                .collect(),
        }
    }

    #[test]
    fn check_accepts_satisfied_constraints() {
        let c = RouteConstraints::none().in_order(&[0, 1, 2]).grouped(&[3, 4]);
        let s = sol(&[&[0, 1, 2], &[5, 3, 4]]);
        c.check(&s).unwrap();
    }

    #[test]
    fn check_flags_out_of_order() {
        let c = RouteConstraints::none().in_order(&[0, 1]);
        assert_eq!(
            c.check(&sol(&[&[1, 0]])),
            Err(ConstraintViolation::OutOfOrder { before: 0, after: 1 })
        );
        assert_eq!(
            c.check(&sol(&[&[0], &[1]])),
            Err(ConstraintViolation::OrderSplitAcrossRoutes { before: 0, after: 1 })
        );
    }

    #[test]
    fn check_flags_broken_groups() {
        let c = RouteConstraints::none().grouped(&[0, 1]);
        assert_eq!(
            c.check(&sol(&[&[0, 2, 1]])),
            Err(ConstraintViolation::GroupInterleaved { group: 0 })
        );
        assert_eq!(
            c.check(&sol(&[&[0], &[1]])),
            Err(ConstraintViolation::GroupSplitAcrossRoutes { group: 0 })
        );
    }

    #[test]
    fn repair_fixes_ordering() {
        let c = RouteConstraints::none().in_order(&[0, 1, 2]);
        let mut s = sol(&[&[2, 1, 0, 5]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes[0].stops.len(), 4, "no task lost");
    }

    #[test]
    fn repair_fixes_cross_route_ordering() {
        let c = RouteConstraints::none().in_order(&[0, 1]);
        let mut s = sol(&[&[0, 5], &[1, 6]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 4);
    }

    #[test]
    fn repair_gathers_groups() {
        let c = RouteConstraints::none().grouped(&[0, 1, 2]);
        let mut s = sol(&[&[0, 7, 1], &[2, 8]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 5, "no task lost");
    }

    #[test]
    fn ordering_into_a_group_does_not_break_contiguity() {
        // Order (0 -> 7) where 0 sits inside group [0, 1]: the repair
        // must place 7 past the group, not inside it.
        let c = RouteConstraints::none().grouped(&[0, 1]).in_order(&[0, 7]);
        let mut s = sol(&[&[7, 0, 1]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes[0].stops, vec![0, 1, 7]);
    }

    #[test]
    fn capacity_with_slack_is_inert() {
        // Three parties, cap three: the constraint can never bind,
        // so the legacy unconstrained solve path stays bit-identical.
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2]], 3);
        assert!(c.is_empty());
        c.check(&sol(&[&[0, 1, 2]])).unwrap();
    }

    #[test]
    fn check_flags_over_capacity_routes() {
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2], vec![3]], 3);
        assert!(!c.is_empty());
        c.check(&sol(&[&[0, 1, 2], &[3]])).unwrap();
        assert_eq!(
            c.check(&sol(&[&[0, 1, 2, 3]])),
            Err(ConstraintViolation::RouteOverCapacity { route: 0, parties: 4 })
        );
    }

    #[test]
    fn repair_evicts_surplus_parties() {
        // Four single-task parties jammed onto one route, cap 3: the
        // smallest party is evicted onto a route with headroom.
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0, 4], vec![1], vec![2], vec![3]], 3);
        let mut s = sol(&[&[0, 1, 2, 3, 4], &[]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 5, "no task lost");
    }

    /// The capacity pass as first written, scanning every party's
    /// task list per route. Kept as the reference the indexed pass
    /// must match move for move.
    fn reference_capacity_repair(c: &RouteConstraints, sol: &mut VrpSolution) {
        let cap = c.max_parties_per_route.unwrap_or(usize::MAX).max(1);
        let parties_on = |route: &Route| -> Vec<usize> {
            c.parties
                .iter()
                .enumerate()
                .filter(|(_, p)| route.stops.iter().any(|s| p.contains(s)))
                .map(|(i, _)| i)
                .collect()
        };
        while let Some((r, hosted)) = sol
            .routes
            .iter()
            .map(parties_on)
            .enumerate()
            .find(|(_, hosted)| hosted.len() > cap)
        {
            let stops_of = |party: usize, route: &Route| -> Vec<usize> {
                route
                    .stops
                    .iter()
                    .copied()
                    .filter(|s| c.parties[party].contains(s))
                    .collect()
            };
            let victim = hosted
                .iter()
                .copied()
                .min_by_key(|&p| stops_of(p, &sol.routes[r]).len())
                .unwrap_or(hosted[0]);
            let dest = sol
                .routes
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != r)
                .map(|(d, route)| (d, parties_on(route)))
                .filter(|(_, h)| h.contains(&victim) || h.len() < cap)
                .max_by_key(|(d, h)| (h.contains(&victim), h.len(), usize::MAX - d))
                .map(|(d, _)| d);
            let moved = stops_of(victim, &sol.routes[r]);
            sol.routes[r].stops.retain(|s| !moved.contains(s));
            match dest {
                Some(d) => sol.routes[d].stops.extend(moved),
                None => sol.routes.push(Route { stops: moved }),
            }
        }
        sol.routes.retain(|r| !r.stops.is_empty());
    }

    #[test]
    fn indexed_capacity_repair_matches_the_party_scan() {
        use rand::Rng;
        let mut rng = androne_simkern::stream_rng(0xCA9);
        let mut evictions = 0;
        for case in 0..400 {
            let n = rng.gen_range(1..30);
            // Consecutive runs of 1-3 tasks form the parties.
            let mut parties = Vec::new();
            let mut next = 0;
            while next < n {
                let len = rng.gen_range(1..4usize).min(n - next);
                parties.push((next..next + len).collect::<Vec<usize>>());
                next += len;
            }
            let cap = rng.gen_range(1..4);
            let c = RouteConstraints::none().with_party_capacity(parties, cap);
            let mut routes = vec![Route { stops: Vec::new() }; rng.gen_range(1..6)];
            for task in 0..n {
                let r = rng.gen_range(0..routes.len());
                let at = rng.gen_range(0..=routes[r].stops.len());
                routes[r].stops.insert(at, task);
            }
            let mut indexed = VrpSolution { routes };
            let mut reference = indexed.clone();
            if c.check(&indexed).is_err() {
                evictions += 1;
            }
            c.repair(&mut indexed);
            reference_capacity_repair(&c, &mut reference);
            assert_eq!(indexed, reference, "case {case}");
        }
        assert!(evictions > 200, "only {evictions} cases needed a repair");
    }

    #[test]
    fn repair_opens_a_route_when_no_destination_fits() {
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2], vec![3]], 1);
        let mut s = sol(&[&[0, 1], &[2, 3]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes.len(), 4, "each party gets its own route");
    }

    #[test]
    fn repair_handles_combined_constraints() {
        let c = RouteConstraints::none()
            .grouped(&[0, 1, 2])
            .in_order(&[0, 1, 2]);
        let mut s = sol(&[&[2, 7, 0], &[1, 8]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
    }
}
