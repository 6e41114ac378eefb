//! The replacement module: mapping abstract tile slots onto physical tiles so
//! that as many configurations as possible are reused (ref [6]).
//!
//! The tiles of the ICN platform are identical, so an initial schedule only
//! talks about abstract slots. When a task is activated, the replacement
//! module decides which physical tile backs each slot. A good decision puts a
//! slot on a tile that already holds the configuration the slot needs first,
//! and evicts configurations that are least likely to be needed again.
//!
//! [`SlotTables`] holds the one implementation of every tile rule, which
//! the simulation's kernels run on tables they prepared once and the
//! one-shot functions on tables derived from the graph and schedule.

use std::collections::BTreeSet;

use drhw_model::{
    ConfigId, InitialSchedule, PeAssignment, SubtaskGraph, SubtaskId, TileId, TileSlot, Time,
};
use serde::{Deserialize, Serialize};

use crate::error::PrefetchError;
use crate::mask::SlotMask;
use crate::reuse::{TileContents, TileMapping};

/// The policy used to map slots onto physical tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Match slots to tiles already holding their first configuration, then
    /// fill the remaining slots with the least-recently-used tiles (the
    /// behaviour of ref \[6\]; default).
    #[default]
    ReuseAware,
    /// Ignore contents entirely and always evict the least-recently-used
    /// tiles (ablation baseline).
    LeastRecentlyUsed,
    /// Map slot *i* to tile *i* (the degenerate baseline: no replacement
    /// intelligence at all).
    Direct,
}

impl ReplacementPolicy {
    /// Parses the stable [`Display`](std::fmt::Display) name of a policy
    /// (`reuse-aware`, `lru`, `direct`) — the names used in job specs and
    /// ablation labels. Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<ReplacementPolicy> {
        match name {
            "reuse-aware" => Some(ReplacementPolicy::ReuseAware),
            "lru" => Some(ReplacementPolicy::LeastRecentlyUsed),
            "direct" => Some(ReplacementPolicy::Direct),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplacementPolicy::ReuseAware => write!(f, "reuse-aware"),
            ReplacementPolicy::LeastRecentlyUsed => write!(f, "lru"),
            ReplacementPolicy::Direct => write!(f, "direct"),
        }
    }
}

/// Chooses a physical tile for every abstract slot of the schedule.
///
/// # Errors
///
/// Returns [`PrefetchError::NotEnoughTiles`] if the schedule uses more slots
/// than the platform has tiles.
pub fn assign_tiles<const W: usize>(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    contents: &TileContents<W>,
    policy: ReplacementPolicy,
) -> Result<TileMapping, PrefetchError> {
    assign_tiles_protecting(graph, schedule, contents, policy, &BTreeSet::new())
}

/// Like [`assign_tiles`], but additionally avoids evicting tiles whose
/// resident configuration appears in `protected` (the configurations the tasks
/// scheduled next will want). The run-time scheduler knows the upcoming task
/// sequence, so the replacement module can use it to maximise reuse — this is
/// the behaviour of the replacement module of ref \[6\].
///
/// # Errors
///
/// Returns [`PrefetchError::NotEnoughTiles`] if the schedule uses more slots
/// than the platform has tiles.
pub fn assign_tiles_protecting<const W: usize>(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    contents: &TileContents<W>,
    policy: ReplacementPolicy,
    protected: &BTreeSet<ConfigId>,
) -> Result<TileMapping, PrefetchError> {
    let tables = SlotTables::new(graph, schedule);
    let is_protected = |config| protected.contains(&config);
    let mut slot_to_tile = Vec::new();
    tables.assign(contents, policy, is_protected, &mut slot_to_tile, |_| {})?;
    Ok(TileMapping::new(slot_to_tile))
}

/// What the tile rules read of one schedule, slot by slot, with the rules
/// themselves — replacement, reuse check, contents update — as methods
/// generic over the tile-mask width.
#[derive(Debug, Clone)]
pub(crate) struct SlotTables {
    /// First subtask executed on each slot.
    first: Vec<Option<SubtaskId>>,
    /// The configuration each slot wants to find already loaded: the one of
    /// its first DRHW subtask.
    desired: Vec<Option<ConfigId>>,
    /// The configuration each slot's tile holds after the task ran: the one
    /// of its last DRHW subtask.
    last: Vec<Option<ConfigId>>,
}

impl SlotTables {
    /// Derives the tables of `schedule`, in the graph's configuration ids.
    pub(crate) fn new(graph: &SubtaskGraph, schedule: &InitialSchedule) -> Self {
        let slots = schedule.slot_count();
        let mut first = Vec::with_capacity(slots);
        let mut desired = Vec::with_capacity(slots);
        let mut last = Vec::with_capacity(slots);
        for s in 0..slots {
            let on_slot = schedule.subtasks_on(PeAssignment::Tile(TileSlot::new(s)));
            let head = on_slot.first().copied();
            first.push(head);
            desired.push(head.and_then(|id| graph.required_config(id)));
            last.push(
                on_slot
                    .iter()
                    .rev()
                    .find_map(|&id| graph.required_config(id)),
            );
        }
        SlotTables {
            first,
            desired,
            last,
        }
    }

    /// Renames every configuration of the tables through `intern`.
    pub(crate) fn intern(&mut self, intern: impl Fn(ConfigId) -> ConfigId) {
        for table in [&mut self.desired, &mut self.last] {
            for config in table.iter_mut().flatten() {
                *config = intern(*config);
            }
        }
    }

    /// Chooses a physical tile for every slot under `policy`, writing the
    /// mapping into `slot_to_tile`, with `is_protected` telling which
    /// configurations upcoming tasks want. Calls `reused` with the first
    /// subtask of every slot the reuse-aware rule's pass 1 matches: exactly
    /// the slots whose tile holds that subtask's configuration (never under
    /// the other rules).
    ///
    /// Both content-aware rules read the indexes `contents` keeps instead
    /// of sorting tiles. Pass 2 takes the free tiles class by class —
    /// holding neither a wanted nor a protected configuration, protected
    /// only, wanted only, both — and each class oldest generation first,
    /// by ascending tile within one: the order of `(wanted, protected,
    /// last_used, tile)`. LRU is the same walk over every tile.
    ///
    /// # Errors
    ///
    /// Returns [`PrefetchError::NotEnoughTiles`] if there are more slots
    /// than `contents` tracks tiles.
    pub(crate) fn assign<const W: usize>(
        &self,
        contents: &TileContents<W>,
        policy: ReplacementPolicy,
        is_protected: impl Fn(ConfigId) -> bool,
        slot_to_tile: &mut Vec<TileId>,
        mut reused: impl FnMut(SubtaskId),
    ) -> Result<(), PrefetchError> {
        let slots = self.desired.len();
        let tiles = contents.tile_count();
        if slots > tiles {
            return Err(PrefetchError::NotEnoughTiles {
                required: slots,
                available: tiles,
            });
        }
        slot_to_tile.clear();
        let generations = contents.generations();
        match policy {
            ReplacementPolicy::Direct => {
                slot_to_tile.extend((0..slots).map(TileId::new));
            }
            ReplacementPolicy::LeastRecentlyUsed => {
                slot_to_tile.extend(
                    oldest_first(generations, SlotMask::full(tiles))
                        .take(slots)
                        .map(TileId::new),
                );
            }
            ReplacementPolicy::ReuseAware => {
                slot_to_tile.resize(slots, UNASSIGNED);
                // Pass 1: give every slot a tile that already holds its first
                // configuration (greedy, slot order, lowest matching tile).
                let mut taken = SlotMask::EMPTY;
                let mut open = SlotMask::<W>::full(slots);
                for (slot, (first, desired)) in self.first.iter().zip(&self.desired).enumerate() {
                    let (Some(first), Some(desired)) = (first, desired) else {
                        continue;
                    };
                    if let Some(tile) = contents.holding(*desired).difference(taken).iter().next() {
                        slot_to_tile[slot] = TileId::new(tile);
                        taken.insert(tile);
                        open.remove(slot);
                        reused(*first);
                    }
                }
                if !open.is_empty() {
                    // Pass 2: fill the open slots, in slot order, with free
                    // tiles: first those whose content nobody wants, oldest
                    // first.
                    let free = SlotMask::full(tiles).difference(taken);
                    let wanted = self
                        .desired
                        .iter()
                        .flatten()
                        .fold(SlotMask::EMPTY, |mask, &config| {
                            mask.union(contents.holding(config))
                        });
                    let protected: SlotMask<W> = free
                        .iter()
                        .filter(|&t| {
                            contents
                                .config_on(TileId::new(t))
                                .is_some_and(&is_protected)
                        })
                        .collect();
                    let unwanted = free.difference(wanted);
                    let wanted = free.intersection(wanted);
                    let classes = [
                        unwanted.difference(protected),
                        unwanted.intersection(protected),
                        wanted.difference(protected),
                        wanted.intersection(protected),
                    ];
                    let chosen = classes
                        .into_iter()
                        .flat_map(|class| oldest_first(generations, class));
                    for (slot, tile) in open.iter().zip(chosen) {
                        slot_to_tile[slot] = TileId::new(tile);
                    }
                }
            }
        }
        Ok(())
    }

    /// The subtasks that can reuse a configuration already resident on the
    /// physical tile their slot is mapped to (per `slot_to_tile`): the
    /// first subtask of every slot whose tile holds the configuration it
    /// needs, in slot order.
    pub(crate) fn reused<'a, const W: usize>(
        &'a self,
        contents: &'a TileContents<W>,
        slot_to_tile: &'a [TileId],
    ) -> impl Iterator<Item = SubtaskId> + 'a {
        self.first
            .iter()
            .zip(&self.desired)
            .zip(slot_to_tile)
            .filter(|((_, desired), &tile)| {
                desired.is_some() && contents.config_on(tile) == **desired
            })
            .filter_map(|((first, _), _)| *first)
    }

    /// Records the effect of executing the schedule on the tile contents:
    /// every slot's tile (per `slot_to_tile`) ends up holding the
    /// configuration of the last DRHW subtask executed on it, stamped `now`,
    /// recorded as one batch.
    pub(crate) fn record<const W: usize>(
        &self,
        contents: &mut TileContents<W>,
        slot_to_tile: &[TileId],
        now: Time,
    ) {
        let loads = slot_to_tile
            .iter()
            .zip(&self.last)
            .filter_map(|(&tile, config)| Some((tile, (*config)?)));
        contents.record_loads(loads, now);
    }
}

/// Sentinel in a slot-to-tile mapping while the reuse-aware rule still
/// looks for a slot's tile.
const UNASSIGNED: TileId = TileId::new(usize::MAX);

/// The tiles of `among` in the order of `(last_used, tile)`: generation by
/// generation, oldest first, and by ascending tile within one. Stops once
/// every tile of `among` came out.
fn oldest_first<const W: usize>(
    generations: &[(Time, SlotMask<W>)],
    among: SlotMask<W>,
) -> impl Iterator<Item = usize> + '_ {
    generations
        .iter()
        .flat_map(move |&(_, tiles)| tiles.intersection(among))
        .take(among.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::reusable_subtasks;
    use drhw_model::{PeAssignment, Subtask, SubtaskId, Time};

    fn two_slot_schedule() -> (SubtaskGraph, InitialSchedule) {
        let mut g = SubtaskGraph::new("two-slot");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(5), ConfigId::new(100)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(5), ConfigId::new(200)));
        g.add_dependency(a, b).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
            ],
        )
        .unwrap();
        (g, schedule)
    }

    #[test]
    fn direct_policy_is_the_identity() {
        let (g, schedule) = two_slot_schedule();
        let contents = TileContents::new(4);
        let m = assign_tiles(&g, &schedule, &contents, ReplacementPolicy::Direct).unwrap();
        assert_eq!(m.tile_of(TileSlot::new(0)), TileId::new(0));
        assert_eq!(m.tile_of(TileSlot::new(1)), TileId::new(1));
    }

    #[test]
    fn reuse_aware_maps_slots_onto_tiles_holding_their_configuration() {
        let (g, schedule) = two_slot_schedule();
        let mut contents = TileContents::new(4);
        contents.record_load(TileId::new(3), ConfigId::new(100), Time::from_millis(2));
        contents.record_load(TileId::new(1), ConfigId::new(200), Time::from_millis(2));
        let m = assign_tiles(&g, &schedule, &contents, ReplacementPolicy::ReuseAware).unwrap();
        assert_eq!(m.tile_of(TileSlot::new(0)), TileId::new(3));
        assert_eq!(m.tile_of(TileSlot::new(1)), TileId::new(1));
        let resident = reusable_subtasks(&g, &schedule, &m, &contents);
        assert_eq!(resident.len(), 2);
    }

    #[test]
    fn reuse_aware_prefers_evicting_unwanted_and_old_tiles() {
        let (g, schedule) = two_slot_schedule();
        let mut contents = TileContents::new(4);
        // Tile 0 holds a configuration wanted by slot 1 (cfg200) but slot 1
        // can be matched directly; tile 2 holds an unrelated config used long
        // ago; tile 3 holds an unrelated config used recently.
        contents.record_load(TileId::new(0), ConfigId::new(200), Time::from_millis(50));
        contents.record_load(TileId::new(2), ConfigId::new(999), Time::from_millis(1));
        contents.record_load(TileId::new(3), ConfigId::new(888), Time::from_millis(90));
        let m = assign_tiles(&g, &schedule, &contents, ReplacementPolicy::ReuseAware).unwrap();
        // Slot 1 matches tile 0 (cfg200); slot 0 has no match and must pick the
        // oldest tile not holding a wanted config: the empty tile 1.
        assert_eq!(m.tile_of(TileSlot::new(1)), TileId::new(0));
        assert_eq!(m.tile_of(TileSlot::new(0)), TileId::new(1));
    }

    #[test]
    fn lru_policy_picks_the_oldest_tiles_regardless_of_contents() {
        let (g, schedule) = two_slot_schedule();
        let mut contents = TileContents::new(3);
        contents.record_load(TileId::new(0), ConfigId::new(100), Time::from_millis(30));
        contents.record_load(TileId::new(1), ConfigId::new(200), Time::from_millis(20));
        contents.record_load(TileId::new(2), ConfigId::new(300), Time::from_millis(10));
        let m = assign_tiles(
            &g,
            &schedule,
            &contents,
            ReplacementPolicy::LeastRecentlyUsed,
        )
        .unwrap();
        // Oldest first: tile 2 then tile 1 — even though tile 0 holds cfg100.
        assert_eq!(m.tile_of(TileSlot::new(0)), TileId::new(2));
        assert_eq!(m.tile_of(TileSlot::new(1)), TileId::new(1));
    }

    #[test]
    fn too_few_tiles_is_rejected() {
        let (g, schedule) = two_slot_schedule();
        let contents = TileContents::new(1);
        let err =
            assign_tiles(&g, &schedule, &contents, ReplacementPolicy::ReuseAware).unwrap_err();
        assert_eq!(
            err,
            PrefetchError::NotEnoughTiles {
                required: 2,
                available: 1
            }
        );
    }

    #[test]
    fn protected_configurations_are_evicted_last() {
        let (g, schedule) = two_slot_schedule();
        let mut contents = TileContents::new(3);
        // Tile 0 holds a configuration a *later* task will want; tile 2 holds
        // junk used more recently than tile 0.
        contents.record_load(TileId::new(0), ConfigId::new(500), Time::from_millis(1));
        contents.record_load(TileId::new(2), ConfigId::new(999), Time::from_millis(40));
        let protected: BTreeSet<ConfigId> = [ConfigId::new(500)].into_iter().collect();
        let m = assign_tiles_protecting(
            &g,
            &schedule,
            &contents,
            ReplacementPolicy::ReuseAware,
            &protected,
        )
        .unwrap();
        // Both slots avoid tile 0 even though it is the least recently used.
        assert_ne!(m.tile_of(TileSlot::new(0)), TileId::new(0));
        assert_ne!(m.tile_of(TileSlot::new(1)), TileId::new(0));
        // Without protection, the old tile 0 is recycled before the newer tile 2.
        let unprotected =
            assign_tiles(&g, &schedule, &contents, ReplacementPolicy::ReuseAware).unwrap();
        assert_eq!(unprotected.tile_of(TileSlot::new(1)), TileId::new(0));
    }

    #[test]
    fn policies_display_their_names() {
        assert_eq!(ReplacementPolicy::ReuseAware.to_string(), "reuse-aware");
        assert_eq!(ReplacementPolicy::LeastRecentlyUsed.to_string(), "lru");
        assert_eq!(ReplacementPolicy::Direct.to_string(), "direct");
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::ReuseAware);
    }

    #[test]
    fn more_tiles_than_slots_leave_unwanted_tiles_untouched() {
        let (g, schedule) = two_slot_schedule();
        let mut contents = TileContents::new(8);
        // A configuration some *other* task may want later sits on tile 5.
        contents.record_load(TileId::new(5), ConfigId::new(777), Time::from_millis(5));
        let m = assign_tiles(&g, &schedule, &contents, ReplacementPolicy::ReuseAware).unwrap();
        assert_ne!(m.tile_of(TileSlot::new(0)), TileId::new(5));
        assert_ne!(m.tile_of(TileSlot::new(1)), TileId::new(5));
        // Resident check still works with the wider platform.
        let resident = reusable_subtasks(&g, &schedule, &m, &contents);
        assert!(resident.is_empty());
        assert!(!resident.contains(&SubtaskId::new(0)));
    }
}
