//! The replacement module: mapping abstract tile slots onto physical tiles so
//! that as many configurations as possible are reused (ref [6]).
//!
//! The tiles of the ICN platform are identical, so an initial schedule only
//! talks about abstract slots. When a task is activated, the replacement
//! module decides which physical tile backs each slot. A good decision puts a
//! slot on a tile that already holds the configuration the slot needs first,
//! and evicts configurations that are least likely to be needed again.

use std::collections::BTreeSet;

use drhw_model::{ConfigId, InitialSchedule, SubtaskGraph, TileId, TileSlot};
use serde::{Deserialize, Serialize};

use crate::error::PrefetchError;
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
pub fn assign_tiles(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    contents: &TileContents,
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
pub fn assign_tiles_protecting(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    contents: &TileContents,
    policy: ReplacementPolicy,
    protected: &BTreeSet<ConfigId>,
) -> Result<TileMapping, PrefetchError> {
    let slots = schedule.slot_count();
    let tiles = contents.tile_count();
    if slots > tiles {
        return Err(PrefetchError::NotEnoughTiles {
            required: slots,
            available: tiles,
        });
    }
    let mapping = match policy {
        ReplacementPolicy::Direct => TileMapping::identity(slots),
        ReplacementPolicy::LeastRecentlyUsed => lru_mapping(slots, contents),
        ReplacementPolicy::ReuseAware => reuse_aware_mapping(graph, schedule, contents, protected),
    };
    Ok(mapping)
}

/// The configuration each slot would like to find already loaded: the one of
/// its first DRHW subtask.
fn desired_configs(graph: &SubtaskGraph, schedule: &InitialSchedule) -> Vec<Option<ConfigId>> {
    (0..schedule.slot_count())
        .map(|s| {
            schedule
                .first_on_slot(TileSlot::new(s))
                .and_then(|id| graph.required_config(id))
        })
        .collect()
}

fn lru_mapping(slots: usize, contents: &TileContents) -> TileMapping {
    let mut tiles: Vec<TileId> = (0..contents.tile_count()).map(TileId::new).collect();
    tiles.sort_by_key(|&t| (contents.last_used(t), t.index()));
    TileMapping::new(tiles.into_iter().take(slots).collect())
}

fn reuse_aware_mapping(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    contents: &TileContents,
    protected: &BTreeSet<ConfigId>,
) -> TileMapping {
    let desired = desired_configs(graph, schedule);
    let slots = desired.len();
    let mut assigned: Vec<Option<TileId>> = vec![None; slots];
    let mut taken = vec![false; contents.tile_count()];

    // Pass 1: give every slot a tile that already holds its first
    // configuration (greedy, slot order is deterministic).
    for (slot, desired_config) in desired.iter().enumerate() {
        let Some(config) = desired_config else {
            continue;
        };
        if let Some(tile) = contents
            .tiles_holding(*config)
            .into_iter()
            .find(|t| !taken[t.index()])
        {
            assigned[slot] = Some(tile);
            taken[tile.index()] = true;
        }
    }

    // Pass 2: fill the remaining slots with free tiles, preferring tiles whose
    // content is wanted by nobody (neither this task nor the protected
    // configurations of upcoming tasks) and, among those, the least recently
    // used — so nothing useful is evicted.
    let wanted: Vec<ConfigId> = desired.iter().flatten().copied().collect();
    let mut free: Vec<TileId> = (0..contents.tile_count())
        .map(TileId::new)
        .filter(|t| !taken[t.index()])
        .collect();
    free.sort_by_key(|&t| {
        let holds_wanted = contents
            .config_on(t)
            .map(|c| wanted.contains(&c))
            .unwrap_or(false);
        let holds_protected = contents
            .config_on(t)
            .map(|c| protected.contains(&c))
            .unwrap_or(false);
        (
            holds_wanted,
            holds_protected,
            contents.last_used(t),
            t.index(),
        )
    });
    let mut free_iter = free.into_iter();
    for slot_tile in assigned.iter_mut() {
        if slot_tile.is_none() {
            *slot_tile = free_iter.next();
        }
    }

    TileMapping::new(
        assigned
            .into_iter()
            .map(|t| t.expect("slot count was checked against tile count"))
            .collect(),
    )
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
