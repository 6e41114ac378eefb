//! The reuse module: tracking tile contents and deciding which subtasks can
//! reuse a resident configuration (ref [6]).
//!
//! At run time, the only information the hybrid prefetcher needs is *which
//! subtasks of the selected schedule find their configuration already loaded*
//! on the physical tile their slot is mapped to. [`TileContents`] tracks what
//! every tile holds across task activations, and [`reusable_subtasks`] turns
//! that state plus a slot-to-tile mapping into the resident set consumed by
//! [`PrefetchProblem::with_resident`](crate::PrefetchProblem::with_resident).

use std::collections::BTreeSet;

use drhw_model::{ConfigId, InitialSchedule, SubtaskGraph, SubtaskId, TileId, TileSlot, Time};
use serde::{Deserialize, Serialize};

use crate::mask::SlotMask;
use crate::replacement::SlotTables;

/// The configuration currently loaded on every physical tile, together with
/// the last time each tile was used (for LRU-style replacement).
///
/// The state also keeps two indexes over those tables, which the
/// replacement rules read instead of scanning and sorting the tiles: the
/// tiles holding each configuration, as one tile mask per configuration
/// id, and the tiles grouped by last-use stamp into *generations*, oldest
/// first. Every update keeps both current. The tile masks are `W` words
/// wide (one by default, as for [`SlotMask`]), so a state tracks at most
/// `64 × W` tiles; the word count is a capacity and changes no result.
/// Equality compares the configurations and stamps alone.
#[derive(Debug, Clone)]
pub struct TileContents<const W: usize = 1> {
    configs: Vec<Option<ConfigId>>,
    last_used: Vec<Time>,
    /// The tiles holding each configuration, indexed by configuration id.
    /// Grows to the largest id loaded;
    /// [`reserve_configs`](Self::reserve_configs) pre-sizes it.
    holders: Vec<SlotMask<W>>,
    /// One `(stamp, tiles)` entry per distinct last-use stamp, in ascending
    /// stamp order; every tile is in exactly one. At most one entry per
    /// tile, and [`cold`](Self::cold) reserves that many.
    generations: Vec<(Time, SlotMask<W>)>,
}

impl<const W: usize> PartialEq for TileContents<W> {
    /// Two states are equal when every tile holds the same configuration
    /// with the same stamp; the indexes follow from those, whatever their
    /// reserved sizes.
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs && self.last_used == other.last_used
    }
}

impl<const W: usize> Eq for TileContents<W> {}

impl TileContents {
    /// Creates the state of a platform whose tiles are all empty, in
    /// one-word tile masks: the width the simulation runs at. Wider states
    /// are built at an explicit word count with [`cold`](Self::cold).
    ///
    /// # Panics
    ///
    /// Panics if `tile_count` exceeds [`SlotMask::CAPACITY`].
    pub fn new(tile_count: usize) -> Self {
        Self::cold(tile_count)
    }
}

impl<const W: usize> TileContents<W> {
    /// Creates the state of a platform whose tiles are all empty, in
    /// `W`-word tile masks.
    ///
    /// # Panics
    ///
    /// Panics if `tile_count` exceeds the `64 × W` tiles `W` words hold.
    pub fn cold(tile_count: usize) -> Self {
        assert!(
            SlotMask::<W>::fits(tile_count),
            "{tile_count} tiles exceed the {} a {W}-word tile mask holds",
            SlotMask::<W>::CAPACITY
        );
        let mut contents = TileContents {
            configs: vec![None; tile_count],
            last_used: vec![Time::ZERO; tile_count],
            holders: Vec::new(),
            generations: Vec::with_capacity(tile_count),
        };
        contents.reset();
        contents
    }

    /// Pre-sizes the per-configuration tile masks for ids below `configs`
    /// (the size of an [interned](crate::PreparedSchedule::intern_configs)
    /// dictionary), so loading them never allocates.
    pub fn reserve_configs(&mut self, configs: usize) {
        if self.holders.len() < configs {
            self.holders.resize(configs, SlotMask::EMPTY);
        }
    }

    /// The tiles holding `config`.
    pub(crate) fn holding(&self, config: ConfigId) -> SlotMask<W> {
        self.holders
            .get(config.index())
            .copied()
            .unwrap_or(SlotMask::EMPTY)
    }

    /// The tiles grouped by last-use stamp, oldest first.
    pub(crate) fn generations(&self) -> &[(Time, SlotMask<W>)] {
        &self.generations
    }

    /// Number of tiles tracked.
    pub fn tile_count(&self) -> usize {
        self.configs.len()
    }

    /// The configuration currently on a tile, if any.
    pub fn config_on(&self, tile: TileId) -> Option<ConfigId> {
        self.configs.get(tile.index()).copied().flatten()
    }

    /// When the tile last executed or received a configuration.
    pub fn last_used(&self, tile: TileId) -> Time {
        self.last_used
            .get(tile.index())
            .copied()
            .unwrap_or(Time::ZERO)
    }

    /// Records that `config` was loaded onto `tile` at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn record_load(&mut self, tile: TileId, config: ConfigId, now: Time) {
        self.record_loads([(tile, config)], now);
    }

    /// Records one batch of loads, all at instant `now`: like
    /// [`record_load`](Self::record_load) for each `(tile, config)` in
    /// turn, with the generations updated once for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if a tile is out of range.
    pub(crate) fn record_loads(
        &mut self,
        loads: impl IntoIterator<Item = (TileId, ConfigId)>,
        now: Time,
    ) {
        let mut restamped = SlotMask::EMPTY;
        for (tile, config) in loads {
            let t = tile.index();
            if let Some(old) = self.configs[t].replace(config) {
                self.holders[old.index()].remove(t);
            }
            if config.index() >= self.holders.len() {
                self.holders.resize(config.index() + 1, SlotMask::EMPTY);
            }
            self.holders[config.index()].insert(t);
            if self.last_used[t] < now {
                self.last_used[t] = now;
                restamped.insert(t);
            }
        }
        self.restamp(restamped, now);
    }

    /// Records that the configuration on `tile` was used (executed) at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn record_use(&mut self, tile: TileId, now: Time) {
        let t = tile.index();
        if self.last_used[t] < now {
            self.last_used[t] = now;
            self.restamp(std::iter::once(t).collect(), now);
        }
    }

    /// Moves `tiles`, whose stamps were all below `now` and are `now` by
    /// now, into the generation stamped `now`: one pass over the older
    /// generations, which drops the ones left empty, then a merge into an
    /// existing `now` generation or an insertion in stamp order. The count
    /// stays within the one generation per tile that `cold` reserves, since
    /// every generation holds a tile.
    fn restamp(&mut self, tiles: SlotMask<W>, now: Time) {
        if tiles.is_empty() {
            return;
        }
        let generations = &mut self.generations;
        let newer = generations.partition_point(|&(stamp, _)| stamp < now);
        let mut kept = 0;
        for index in 0..newer {
            let (stamp, held) = generations[index];
            let held = held.difference(tiles);
            if !held.is_empty() {
                generations[kept] = (stamp, held);
                kept += 1;
            }
        }
        generations.drain(kept..newer);
        match generations.get_mut(kept) {
            Some((stamp, held)) if *stamp == now => *held = held.union(tiles),
            _ => generations.insert(kept, (now, tiles)),
        }
    }

    /// Clears every tile (e.g. when the FPGA is fully reconfigured).
    pub fn clear(&mut self) {
        for held in self.configs.iter_mut().filter_map(Option::take) {
            // Every tile holding `held` is being emptied.
            self.holders[held.index()].clear();
        }
    }

    /// Resets the tracker to the cold state of [`TileContents::cold`]: every
    /// tile empty *and* every LRU timestamp back to zero. Unlike
    /// [`clear`](Self::clear) this is bit-identical to a freshly constructed
    /// value, which is what the chunked simulation engine needs when it
    /// reuses one tracker across chunk boundaries instead of reallocating.
    pub fn reset(&mut self) {
        self.clear();
        self.last_used.fill(Time::ZERO);
        self.generations.clear();
        let tiles = self.tile_count();
        if tiles > 0 {
            self.generations.push((Time::ZERO, SlotMask::full(tiles)));
        }
    }
}

/// A mapping from the abstract tile slots of one schedule to physical tiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileMapping {
    slot_to_tile: Vec<TileId>,
}

impl TileMapping {
    /// Creates a mapping from a dense slot-indexed vector.
    pub fn new(slot_to_tile: Vec<TileId>) -> Self {
        TileMapping { slot_to_tile }
    }

    /// The identity mapping (slot *i* on tile *i*).
    pub fn identity(slot_count: usize) -> Self {
        TileMapping {
            slot_to_tile: (0..slot_count).map(TileId::new).collect(),
        }
    }

    /// The physical tile a slot is mapped to.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the mapping.
    pub fn tile_of(&self, slot: TileSlot) -> TileId {
        self.slot_to_tile[slot.index()]
    }

    /// Number of slots mapped.
    pub fn slot_count(&self) -> usize {
        self.slot_to_tile.len()
    }

    /// Iterates over `(slot, tile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TileSlot, TileId)> + '_ {
        self.slot_to_tile
            .iter()
            .enumerate()
            .map(|(s, &t)| (TileSlot::new(s), t))
    }
}

/// Determines which subtasks of a schedule can reuse a configuration that is
/// already resident on the physical tile their slot is mapped to.
///
/// Only the *first* DRHW subtask of each slot can profit from what a previous
/// task left on the tile — anything executed later on the slot sees whatever
/// the slot's own loads put there (that intra-task reuse is handled by
/// [`PrefetchProblem`](crate::PrefetchProblem) itself).
pub fn reusable_subtasks<const W: usize>(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    mapping: &TileMapping,
    contents: &TileContents<W>,
) -> BTreeSet<SubtaskId> {
    SlotTables::new(graph, schedule)
        .reused(contents, &mapping.slot_to_tile)
        .collect()
}

/// Applies the effect of executing a task to the tile contents: every slot's
/// tile ends up holding the configuration of the last DRHW subtask executed on
/// that slot, stamped with the completion instant `now`.
pub fn apply_schedule_to_contents<const W: usize>(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    mapping: &TileMapping,
    contents: &mut TileContents<W>,
    now: Time,
) {
    SlotTables::new(graph, schedule).record(contents, &mapping.slot_to_tile, now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_model::{PeAssignment, Platform, Subtask};

    fn simple() -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("simple");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(5), ConfigId::new(10)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(5), ConfigId::new(11)));
        let c = g.add_subtask(Subtask::new("c", Time::from_millis(5), ConfigId::new(12)));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
                PeAssignment::Tile(TileSlot::new(0)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(4).unwrap();
        (g, schedule, platform)
    }

    #[test]
    fn empty_tiles_offer_no_reuse() {
        let (g, schedule, platform) = simple();
        let contents = TileContents::new(platform.tile_count());
        let mapping = TileMapping::identity(schedule.slot_count());
        assert!(reusable_subtasks(&g, &schedule, &mapping, &contents).is_empty());
    }

    #[test]
    fn matching_configuration_on_the_mapped_tile_is_reused() {
        let (g, schedule, platform) = simple();
        let mut contents = TileContents::new(platform.tile_count());
        contents.record_load(TileId::new(2), ConfigId::new(10), Time::from_millis(1));
        // Slot 0 mapped on tile 2 which holds cfg10 = config of subtask a.
        let mapping = TileMapping::new(vec![TileId::new(2), TileId::new(0)]);
        let resident = reusable_subtasks(&g, &schedule, &mapping, &contents);
        assert_eq!(resident, [SubtaskId::new(0)].into_iter().collect());
    }

    #[test]
    fn only_the_first_subtask_of_a_slot_can_reuse_residual_contents() {
        let (g, schedule, platform) = simple();
        let mut contents = TileContents::new(platform.tile_count());
        // Tile 0 holds the configuration of subtask c, which runs *second* on
        // slot 0: the residual content is overwritten by a's load first.
        contents.record_load(TileId::new(0), ConfigId::new(12), Time::from_millis(1));
        let mapping = TileMapping::identity(schedule.slot_count());
        assert!(reusable_subtasks(&g, &schedule, &mapping, &contents).is_empty());
    }

    #[test]
    fn contents_track_loads_uses_and_lru_times() {
        let mut contents = TileContents::new(3);
        assert_eq!(contents.tile_count(), 3);
        assert_eq!(contents.config_on(TileId::new(0)), None);
        contents.record_load(TileId::new(0), ConfigId::new(5), Time::from_millis(10));
        contents.record_use(TileId::new(0), Time::from_millis(25));
        assert_eq!(contents.config_on(TileId::new(0)), Some(ConfigId::new(5)));
        assert_eq!(contents.last_used(TileId::new(0)), Time::from_millis(25));
        assert_eq!(contents.holding(ConfigId::new(5)), SlotMask::from_bits(0b1));
        // Stale timestamps never move backwards.
        contents.record_use(TileId::new(0), Time::from_millis(1));
        assert_eq!(contents.last_used(TileId::new(0)), Time::from_millis(25));
        contents.clear();
        assert_eq!(contents.config_on(TileId::new(0)), None);
    }

    #[test]
    fn apply_schedule_leaves_the_last_configuration_of_each_slot() {
        let (g, schedule, platform) = simple();
        let mut contents = TileContents::new(platform.tile_count());
        let mapping = TileMapping::identity(schedule.slot_count());
        apply_schedule_to_contents(
            &g,
            &schedule,
            &mapping,
            &mut contents,
            Time::from_millis(15),
        );
        // Slot 0 executed a then c: tile 0 ends with c's configuration.
        assert_eq!(contents.config_on(TileId::new(0)), Some(ConfigId::new(12)));
        assert_eq!(contents.config_on(TileId::new(1)), Some(ConfigId::new(11)));
        assert_eq!(contents.last_used(TileId::new(0)), Time::from_millis(15));
        // Running the same task again now reuses slot 1's configuration (slot 0
        // needs a's configuration which was overwritten by c's).
        let resident = reusable_subtasks(&g, &schedule, &mapping, &contents);
        assert_eq!(resident, [SubtaskId::new(1)].into_iter().collect());
    }

    /// Asserts that the indexes of `contents` equal ones rebuilt from its
    /// configurations and stamps.
    fn assert_indexes_rebuild<const W: usize>(contents: &TileContents<W>, label: &str) {
        let tiles = contents.tile_count();
        let held = |t: usize| contents.config_on(TileId::new(t));
        for config in 0..contents.holders.len().max(16) {
            let config = ConfigId::new(config);
            let expected: SlotMask<W> = (0..tiles).filter(|&t| held(t) == Some(config)).collect();
            assert_eq!(contents.holding(config), expected, "{config} {label}");
        }
        let mut stamps = contents.last_used.clone();
        stamps.sort_unstable();
        stamps.dedup();
        let expected: Vec<(Time, SlotMask<W>)> = stamps
            .into_iter()
            .map(|stamp| {
                let tiles = (0..tiles).filter(|&t| contents.last_used[t] == stamp);
                (stamp, tiles.collect())
            })
            .collect();
        assert_eq!(contents.generations(), &expected[..], "{label}");
    }

    #[test]
    fn indexes_equal_a_rebuild_after_any_sequence_of_updates() {
        for (seed, tiles) in [(1u64, 1usize), (2, 3), (3, 8), (4, 13), (5, 64)] {
            check_indexes_rebuild(TileContents::new(tiles), seed);
        }
        for (seed, tiles) in [(6u64, 70usize), (7, 128)] {
            check_indexes_rebuild(TileContents::<2>::cold(tiles), seed);
        }
    }

    /// Runs 400 random updates on `contents`, checking its indexes against
    /// a rebuild after each.
    fn check_indexes_rebuild<const W: usize>(mut contents: TileContents<W>, seed: u64) {
        let tiles = contents.tile_count();
        let mut rng = drhw_model::SplitMix64::new(seed);
        let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        contents.reserve_configs(16);
        let reserved = contents.generations.capacity();
        assert_indexes_rebuild(&contents, "new");
        for step in 0..400 {
            // A few stamp values, so stamps tie and go back; a few
            // configurations, so loads replace them in place.
            let now = Time::from_millis(draw(6) as u64);
            let tile = TileId::new(draw(tiles));
            let config = ConfigId::new(draw(16));
            let op = match draw(20) {
                0 => {
                    contents.clear();
                    "clear"
                }
                1 => {
                    contents.reset();
                    "reset"
                }
                2..=6 => {
                    contents.record_use(tile, now);
                    "use"
                }
                7..=13 => {
                    contents.record_load(tile, config, now);
                    "load"
                }
                _ => {
                    // A batch of loads, possibly naming a tile twice.
                    let batch: Vec<_> = (0..1 + draw(4))
                        .map(|_| (TileId::new(draw(tiles)), ConfigId::new(draw(16))))
                        .collect();
                    contents.record_loads(batch, now);
                    "batch"
                }
            };
            assert_indexes_rebuild(&contents, &format!("{tiles} tiles, step {step} {op}"));
            // Updates never outgrow what `cold` and `reserve_configs`
            // sized.
            assert_eq!(contents.generations.capacity(), reserved);
            assert_eq!(contents.holders.len(), 16);
        }
    }

    #[test]
    fn equality_depends_only_on_configurations_and_stamps() {
        let mut a = TileContents::new(4);
        let mut b = TileContents::new(4);
        b.reserve_configs(300);
        // Same state through different histories and index sizes.
        a.record_load(TileId::new(1), ConfigId::new(200), Time::from_millis(3));
        b.record_load(TileId::new(1), ConfigId::new(7), Time::from_millis(1));
        b.record_use(TileId::new(2), Time::from_millis(2));
        b.clear();
        b.record_load(TileId::new(1), ConfigId::new(200), Time::from_millis(3));
        assert_ne!(a, b, "tile 2's stamps differ");
        a.record_use(TileId::new(2), Time::from_millis(2));
        assert_eq!(a, b);
        assert_ne!(a.holders.len(), b.holders.len());
        a.record_load(TileId::new(0), ConfigId::new(200), Time::from_millis(2));
        assert_ne!(a, b, "tile 0's configuration differs");
    }

    #[test]
    fn a_two_word_state_keeps_its_indexes_and_serves_every_rule() {
        use crate::{assign_tiles_protecting, ReplacementPolicy};
        let (g, schedule, _) = simple();
        let tiles = SlotMask::<1>::CAPACITY + 6;
        let mut contents = TileContents::<2>::cold(tiles);
        contents.reserve_configs(64);
        // Tile 69 holds slot 0's configuration, tile 68 a protected one;
        // tile 0 was used last.
        contents.record_load(TileId::new(69), ConfigId::new(10), Time::from_millis(60));
        contents.record_loads(
            [(TileId::new(68), ConfigId::new(99))],
            Time::from_millis(10),
        );
        contents.record_use(TileId::new(0), Time::from_millis(70));
        assert_indexes_rebuild(&contents, "two words");
        let protected = [ConfigId::new(99)].into_iter().collect();
        let reuse = assign_tiles_protecting(
            &g,
            &schedule,
            &contents,
            ReplacementPolicy::ReuseAware,
            &protected,
        )
        .unwrap();
        assert_eq!(reuse.tile_of(TileSlot::new(0)), TileId::new(69));
        assert_eq!(reuse.tile_of(TileSlot::new(1)), TileId::new(1));
        let resident = reusable_subtasks(&g, &schedule, &reuse, &contents);
        assert_eq!(resident, [SubtaskId::new(0)].into_iter().collect());
        let lru = assign_tiles_protecting(
            &g,
            &schedule,
            &contents,
            ReplacementPolicy::LeastRecentlyUsed,
            &protected,
        )
        .unwrap();
        assert_eq!(lru.tile_of(TileSlot::new(0)), TileId::new(1));
        assert_eq!(lru.tile_of(TileSlot::new(1)), TileId::new(2));
        contents.clear();
        contents.reset();
        assert_eq!(contents, TileContents::<2>::cold(tiles));
        assert_indexes_rebuild(&contents, "two words, reset");
    }

    #[test]
    #[should_panic(expected = "65 tiles exceed the 64 a 1-word tile mask holds")]
    fn the_one_word_constructor_refuses_65_tiles() {
        let _ = TileContents::new(SlotMask::<1>::CAPACITY + 1);
    }

    #[test]
    fn tile_mapping_accessors() {
        let mapping = TileMapping::new(vec![TileId::new(3), TileId::new(1)]);
        assert_eq!(mapping.slot_count(), 2);
        assert_eq!(mapping.tile_of(TileSlot::new(0)), TileId::new(3));
        let pairs: Vec<_> = mapping.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (TileSlot::new(0), TileId::new(3)),
                (TileSlot::new(1), TileId::new(1))
            ]
        );
        let ident = TileMapping::identity(3);
        assert_eq!(ident.tile_of(TileSlot::new(2)), TileId::new(2));
    }
}
