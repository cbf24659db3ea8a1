//! Wave bin-packing for batched admission.
//!
//! The VRP solver's simulated annealing is the right tool for a
//! handful of tenants with interleavable waypoints; an admitted batch
//! of thousands of orders per wave needs a cheaper shape. This module
//! packs admitted orders onto a fleet of simulated drones with a
//! deterministic first-fit pass: each order is one pack item (its
//! next waypoint's energy/time need), each flight is a bin bounded by
//! the board-profile party cap and the airframe battery budget, and
//! whatever does not fit this wave **spills** — the caller re-queues
//! spilled orders at the front of their admission lanes so they lead
//! the next wave.
//!
//! Determinism: plain first-fit in the admitted order over bins in
//! open order; no randomness, no maps — the packing is a pure
//! function of the item list and limits.

/// One order's demand on a flight this wave.
#[derive(Debug, Clone, PartialEq)]
pub struct PackItem {
    /// Owning virtual drone (one lane ↔ one owner; a flight carries
    /// at most `party_cap` distinct owners).
    pub owner: String,
    /// Energy the flight must spend for this item (travel + service).
    pub energy_j: f64,
    /// Flight time this item adds.
    pub time_s: f64,
}

/// One packed flight: indices into the input item slice, plus the
/// accumulated load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedFlight {
    pub items: Vec<usize>,
    pub energy_j: f64,
    pub time_s: f64,
}

/// The result of one wave's packing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Packing {
    pub flights: Vec<PackedFlight>,
    /// Indices of items that did not fit (re-queue them first).
    pub spilled: Vec<usize>,
}

impl Packing {
    /// Total items placed on flights.
    pub fn packed_count(&self) -> usize {
        self.flights.iter().map(|f| f.items.len()).sum()
    }
}

/// Incremental first-fit: items are offered one at a time, in order,
/// and land exactly where [`bin_pack`] would put them. Once every bin
/// is open and at the party cap ([`Packer::is_full`]) every further
/// offer spills, so a caller packing a long backlog can stop there
/// and keep the rest queued in order.
#[derive(Debug, Clone)]
pub struct Packer {
    fleet_size: usize,
    party_cap: usize,
    battery_budget_j: f64,
    flights: Vec<PackedFlight>,
    /// First bin that might still have room: every bin below this is
    /// full on the party cap, so the scan skips them (keeps the pass
    /// near-linear when items are uniform).
    first_open: usize,
}

impl Packer {
    /// An empty packer for at most `fleet_size` flights, each carrying
    /// at most `party_cap` items and `battery_budget_j` joules.
    pub fn new(fleet_size: usize, party_cap: usize, battery_budget_j: f64) -> Self {
        Packer {
            fleet_size,
            party_cap,
            battery_budget_j,
            flights: Vec::new(),
            first_open: 0,
        }
    }

    /// Places item `idx` on the first bin with room, opening a new
    /// flight while the fleet allows. Returns `false` if it spilled.
    /// Items too large for an empty bin spill rather than opening a
    /// doomed flight.
    pub fn offer(&mut self, idx: usize, energy_j: f64, time_s: f64) -> bool {
        if self.party_cap == 0 || energy_j > self.battery_budget_j {
            return false;
        }
        let (cap, budget) = (self.party_cap, self.battery_budget_j);
        let fits = |bin: &PackedFlight| bin.items.len() < cap && bin.energy_j + energy_j <= budget;
        let placed = if let Some(b) = self.flights[self.first_open..].iter().position(fits) {
            let bin = &mut self.flights[self.first_open + b];
            bin.items.push(idx);
            bin.energy_j += energy_j;
            bin.time_s += time_s;
            true
        } else if self.flights.len() < self.fleet_size {
            self.flights.push(PackedFlight {
                items: vec![idx],
                energy_j,
                time_s,
            });
            true
        } else {
            false
        };
        while self
            .flights
            .get(self.first_open)
            .is_some_and(|bin| bin.items.len() >= cap)
        {
            self.first_open += 1;
        }
        placed
    }

    /// Whether every further offer must spill: all `fleet_size` bins
    /// are open and at the party cap (or there is no capacity at all).
    pub fn is_full(&self) -> bool {
        self.party_cap == 0
            || (self.flights.len() >= self.fleet_size && self.first_open == self.flights.len())
    }

    /// The packed flights, in open order.
    pub fn into_flights(self) -> Vec<PackedFlight> {
        self.flights
    }
}

/// First-fit packs `items` onto at most `fleet_size` flights, each
/// carrying at most `party_cap` items and at most `battery_budget_j`
/// joules of demand: every item offered to one [`Packer`] in input
/// order. Pure and deterministic.
pub fn bin_pack(
    items: &[PackItem],
    fleet_size: usize,
    party_cap: usize,
    battery_budget_j: f64,
) -> Packing {
    let mut packer = Packer::new(fleet_size, party_cap, battery_budget_j);
    let spilled = items
        .iter()
        .enumerate()
        .filter(|(idx, item)| !packer.offer(*idx, item.energy_j, item.time_s))
        .map(|(idx, _)| idx)
        .collect();
    Packing {
        flights: packer.into_flights(),
        spilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(owner: &str, energy_j: f64) -> PackItem {
        PackItem {
            owner: owner.to_string(),
            energy_j,
            time_s: energy_j / 100.0,
        }
    }

    #[test]
    fn respects_party_cap_and_battery_budget() {
        let items: Vec<PackItem> = (0..7).map(|i| item(&format!("t{i}"), 10_000.0)).collect();
        // Budget fits 2 items; party cap allows 3.
        let p = bin_pack(&items, 10, 3, 25_000.0);
        assert!(p.spilled.is_empty());
        for f in &p.flights {
            assert!(f.items.len() <= 3);
            assert!(f.energy_j <= 25_000.0 + 1e-9);
        }
        assert_eq!(p.packed_count(), 7);
        assert_eq!(p.flights.len(), 4, "2 per flight on the energy bound");
    }

    #[test]
    fn spills_when_the_fleet_is_exhausted() {
        let items: Vec<PackItem> = (0..5).map(|i| item(&format!("t{i}"), 10_000.0)).collect();
        let p = bin_pack(&items, 2, 1, 50_000.0);
        assert_eq!(p.packed_count(), 2);
        assert_eq!(p.spilled, vec![2, 3, 4], "overflow spills in input order");
    }

    #[test]
    fn oversized_items_spill_instead_of_opening_doomed_flights() {
        let items = vec![item("big", 99_000.0), item("ok", 1_000.0)];
        let p = bin_pack(&items, 4, 3, 50_000.0);
        assert_eq!(p.spilled, vec![0]);
        assert_eq!(p.flights.len(), 1);
        assert_eq!(p.flights[0].items, vec![1]);
    }

    #[test]
    fn packing_is_deterministic() {
        let items: Vec<PackItem> = (0..100)
            .map(|i| item(&format!("t{i}"), 1_000.0 + f64::from(i % 7) * 3_000.0))
            .collect();
        let a = bin_pack(&items, 16, 3, 20_000.0);
        let b = bin_pack(&items, 16, 3, 20_000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_fleet_or_cap_spills_everything() {
        let items = vec![item("a", 1.0)];
        assert_eq!(bin_pack(&items, 0, 3, 1e9).spilled, vec![0]);
        assert_eq!(bin_pack(&items, 3, 0, 1e9).spilled, vec![0]);
        assert!(Packer::new(0, 3, 1e9).is_full());
        assert!(Packer::new(3, 0, 1e9).is_full());
    }

    /// Plain first-fit over every open bin, no skip index: the oracle
    /// both `Packer` and `bin_pack` must reproduce.
    fn naive_first_fit(
        items: &[PackItem],
        fleet_size: usize,
        party_cap: usize,
        battery_budget_j: f64,
    ) -> Packing {
        let mut packing = Packing::default();
        for (idx, item) in items.iter().enumerate() {
            if party_cap == 0 || item.energy_j > battery_budget_j {
                packing.spilled.push(idx);
                continue;
            }
            let fits = |bin: &&mut PackedFlight| {
                bin.items.len() < party_cap && bin.energy_j + item.energy_j <= battery_budget_j
            };
            let open = packing.flights.len();
            if let Some(bin) = packing.flights.iter_mut().find(fits) {
                bin.items.push(idx);
                bin.energy_j += item.energy_j;
                bin.time_s += item.time_s;
            } else if open < fleet_size {
                packing.flights.push(PackedFlight {
                    items: vec![idx],
                    energy_j: item.energy_j,
                    time_s: item.time_s,
                });
            } else {
                packing.spilled.push(idx);
            }
        }
        packing
    }

    /// Offers items until the packer is full, then spills the rest in
    /// order without offering them — the scale executor's plan loop.
    fn pack_until_full(
        items: &[PackItem],
        fleet_size: usize,
        party_cap: usize,
        battery_budget_j: f64,
    ) -> Packing {
        let mut packer = Packer::new(fleet_size, party_cap, battery_budget_j);
        let mut spilled = Vec::new();
        let mut next = 0;
        while next < items.len() && !packer.is_full() {
            if !packer.offer(next, items[next].energy_j, items[next].time_s) {
                spilled.push(next);
            }
            next += 1;
        }
        spilled.extend(next..items.len());
        Packing {
            flights: packer.into_flights(),
            spilled,
        }
    }

    #[test]
    fn packer_fills_on_the_party_cap_not_the_battery() {
        // Budget fits 2 items per bin, cap 3: bins are energy-bound
        // but never at the cap, so the packer never reports full.
        let mut p = Packer::new(2, 3, 25_000.0);
        assert!(!p.is_full());
        for idx in 0..4 {
            assert!(p.offer(idx, 10_000.0, 1.0));
        }
        assert!(!p.is_full(), "energy-bound bins are not at the cap");
        assert!(!p.offer(4, 10_000.0, 1.0), "no bin has energy room");
        assert!(p.offer(5, 4_000.0, 1.0), "a small item still fits");
        assert!(p.offer(6, 4_000.0, 1.0));
        assert!(p.is_full(), "both bins now at the party cap");
        assert_eq!(p.into_flights().len(), 2);
    }

    #[test]
    fn stopping_at_full_matches_a_full_pack() {
        let items: Vec<PackItem> = (0..200)
            .map(|i| item(&format!("t{i}"), 1_000.0 + f64::from(i % 7) * 3_000.0))
            .collect();
        let full = bin_pack(&items, 8, 3, 20_000.0);
        assert_eq!(pack_until_full(&items, 8, 3, 20_000.0), full);
        assert!(full.spilled.len() > 150, "the backlog mostly spills");
    }

    fn arb_items() -> impl Strategy<Value = Vec<PackItem>> {
        // Energies up to 60 kJ against budgets of 10–50 kJ: some items
        // are oversized, and the budget binds on many bins.
        proptest::collection::vec((0.0f64..60_000.0, 0.0f64..900.0), 0..64).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (energy_j, time_s))| PackItem {
                    owner: format!("t{i}"),
                    energy_j,
                    time_s,
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn bin_pack_and_packer_match_naive_first_fit(
            items in arb_items(),
            fleet_size in 0usize..6,
            party_cap in 0usize..5,
            budget in 10_000.0f64..50_000.0,
        ) {
            let oracle = naive_first_fit(&items, fleet_size, party_cap, budget);
            prop_assert_eq!(&bin_pack(&items, fleet_size, party_cap, budget), &oracle);
            prop_assert_eq!(&pack_until_full(&items, fleet_size, party_cap, budget), &oracle);
        }
    }
}
