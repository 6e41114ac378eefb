//! The TCM design-time scheduler.
//!
//! For every scenario of every task, the design-time scheduler explores the
//! resource allocation space (how many DRHW tiles to give the task) and
//! produces one candidate schedule per allocation with a classic
//! weight-driven list scheduler. The non-dominated candidates form the
//! scenario's [`ParetoCurve`]. These schedules deliberately *neglect the
//! reconfiguration latency* — dealing with the loads is exactly the job of the
//! prefetch module built on top of this flow.

use std::collections::BTreeMap;

use drhw_model::{
    GraphAnalysis, InitialSchedule, IspId, PeAssignment, PeClass, Platform, SubtaskGraph,
    SubtaskId, TileSlot, Time,
};
use serde::{Deserialize, Serialize};

use crate::energy::EnergyModel;
use crate::error::TcmError;
use crate::pareto::{ParetoCurve, ParetoPoint};

/// Weight-driven list scheduler exploring one schedule per tile allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignTimeScheduler {
    energy: EnergyModel,
}

impl DesignTimeScheduler {
    /// Creates a scheduler with the default energy model.
    pub fn new() -> Self {
        DesignTimeScheduler {
            energy: EnergyModel::new(),
        }
    }

    /// List-schedules `graph` onto exactly `slots` DRHW tile slots (plus one
    /// ISP for software subtasks), neglecting reconfiguration latency.
    ///
    /// Subtasks become ready once their predecessors are scheduled and are
    /// served by decreasing criticality weight; each ready subtask goes to the
    /// processing element where it can start earliest.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or `slots` is zero while the
    /// graph contains DRHW subtasks.
    pub fn schedule_on(
        &self,
        graph: &SubtaskGraph,
        slots: usize,
    ) -> Result<InitialSchedule, TcmError> {
        graph.validate()?;
        let needs_drhw = graph.drhw_subtasks().len();
        if slots == 0 && needs_drhw > 0 {
            return Err(TcmError::EmptyCurve);
        }
        let analysis = GraphAnalysis::new(graph)?;
        let n = graph.len();

        let mut finish: Vec<Option<Time>> = vec![None; n];
        let mut remaining_preds: Vec<usize> =
            graph.ids().map(|id| graph.predecessors(id).len()).collect();
        let mut assignment: Vec<PeAssignment> = vec![PeAssignment::Isp(IspId::new(0)); n];
        let mut pe_order: BTreeMap<PeAssignment, Vec<SubtaskId>> = BTreeMap::new();
        let mut slot_free = vec![Time::ZERO; slots.max(1)];
        let mut isp_free = Time::ZERO;
        let mut ready: Vec<SubtaskId> = graph
            .ids()
            .filter(|&id| remaining_preds[id.index()] == 0)
            .collect();
        let mut scheduled = 0usize;

        while scheduled < n {
            // Highest weight first; ties by id keep the result deterministic.
            ready.sort_by(|a, b| {
                analysis
                    .weight(*b)
                    .cmp(&analysis.weight(*a))
                    .then(a.index().cmp(&b.index()))
            });
            let id = ready.remove(0);
            let preds_ready = graph
                .predecessors(id)
                .iter()
                .map(|&p| finish[p.index()].expect("predecessors are scheduled first"))
                .max()
                .unwrap_or(Time::ZERO);
            let (pe, start) = match graph.subtask(id).pe_class() {
                PeClass::Drhw => {
                    // Earliest start wins; among equal starts prefer the slot
                    // that has been busy the longest (packing keeps the number
                    // of distinct slots, and therefore reconfigurations, low).
                    let (slot, &free) = slot_free
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &f)| (f.max(preds_ready), std::cmp::Reverse(f), *i))
                        .expect("at least one slot exists");
                    slot_free[slot] = free.max(preds_ready) + graph.subtask(id).exec_time();
                    (
                        PeAssignment::Tile(TileSlot::new(slot)),
                        free.max(preds_ready),
                    )
                }
                PeClass::Isp => {
                    let start = isp_free.max(preds_ready);
                    isp_free = start + graph.subtask(id).exec_time();
                    (PeAssignment::Isp(IspId::new(0)), start)
                }
            };
            assignment[id.index()] = pe;
            pe_order.entry(pe).or_default().push(id);
            finish[id.index()] = Some(start + graph.subtask(id).exec_time());
            scheduled += 1;
            for &succ in graph.successors(id) {
                remaining_preds[succ.index()] -= 1;
                if remaining_preds[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }

        InitialSchedule::with_order(graph, assignment, pe_order).map_err(TcmError::from)
    }

    /// Builds the Pareto curve of a scenario on the given platform: one
    /// candidate schedule per tile allocation from 1 to
    /// `min(platform tiles, DRHW subtasks)`, dominated candidates removed.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or no candidate can be built.
    pub fn pareto_curve(
        &self,
        graph: &SubtaskGraph,
        platform: &Platform,
    ) -> Result<ParetoCurve, TcmError> {
        graph.validate()?;
        let drhw = graph.drhw_subtasks().len();
        let max_slots = drhw.min(platform.tile_count()).max(1);
        let mut candidates = Vec::with_capacity(max_slots);
        for slots in 1..=max_slots {
            let schedule = self.schedule_on(graph, slots)?;
            let exec_time = schedule.ideal_timing(graph)?.makespan();
            let energy = self
                .energy
                .schedule_energy_mj(graph, schedule.slot_count(), exec_time);
            candidates.push(ParetoPoint::new(schedule, exec_time, energy));
        }
        ParetoCurve::from_candidates(candidates)
    }
}

impl Default for DesignTimeScheduler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_model::{ConfigId, Subtask};

    /// Two parallel chains of three subtasks each.
    fn two_chains() -> SubtaskGraph {
        let mut g = SubtaskGraph::new("chains");
        let mut prev: Option<SubtaskId> = None;
        for i in 0..3 {
            let id = g.add_subtask(Subtask::new(
                format!("a{i}"),
                Time::from_millis(10),
                ConfigId::new(i),
            ));
            if let Some(p) = prev {
                g.add_dependency(p, id).unwrap();
            }
            prev = Some(id);
        }
        let mut prev: Option<SubtaskId> = None;
        for i in 0..3 {
            let id = g.add_subtask(Subtask::new(
                format!("b{i}"),
                Time::from_millis(10),
                ConfigId::new(10 + i),
            ));
            if let Some(p) = prev {
                g.add_dependency(p, id).unwrap();
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn single_slot_schedule_serialises_everything() {
        let g = two_chains();
        let scheduler = DesignTimeScheduler::new();
        let schedule = scheduler.schedule_on(&g, 1).unwrap();
        assert_eq!(schedule.slot_count(), 1);
        let timed = schedule.ideal_timing(&g).unwrap();
        assert_eq!(timed.makespan(), Time::from_millis(60));
    }

    #[test]
    fn two_slots_run_the_chains_in_parallel() {
        let g = two_chains();
        let scheduler = DesignTimeScheduler::new();
        let schedule = scheduler.schedule_on(&g, 2).unwrap();
        assert_eq!(schedule.slot_count(), 2);
        let timed = schedule.ideal_timing(&g).unwrap();
        assert_eq!(timed.makespan(), Time::from_millis(30));
    }

    #[test]
    fn extra_slots_do_not_help_beyond_the_graph_parallelism() {
        let g = two_chains();
        let scheduler = DesignTimeScheduler::new();
        let four = scheduler.schedule_on(&g, 4).unwrap();
        let timed = four.ideal_timing(&g).unwrap();
        assert_eq!(timed.makespan(), Time::from_millis(30));
        // The list scheduler only occupies as many slots as it profits from.
        assert!(four.slot_count() <= 4);
    }

    #[test]
    fn isp_subtasks_go_to_the_isp() {
        let mut g = two_chains();
        let control = g.add_subtask(
            Subtask::new("control", Time::from_millis(2), ConfigId::new(99))
                .with_pe_class(PeClass::Isp),
        );
        let scheduler = DesignTimeScheduler::new();
        let schedule = scheduler.schedule_on(&g, 2).unwrap();
        assert_eq!(
            schedule.assignment(control),
            PeAssignment::Isp(IspId::new(0))
        );
    }

    #[test]
    fn pareto_curve_trades_time_for_energy() {
        let g = two_chains();
        let platform = Platform::virtex_like(8).unwrap();
        let curve = DesignTimeScheduler::new()
            .pareto_curve(&g, &platform)
            .unwrap();
        assert!(
            curve.len() >= 2,
            "expected a real trade-off, got {} points",
            curve.len()
        );
        assert_eq!(curve.fastest().exec_time(), Time::from_millis(30));
        // The most efficient point uses fewer tiles than the fastest one.
        assert!(curve.most_efficient().tiles_used() < curve.fastest().tiles_used().max(2));
        // Every point respects the platform's tile budget.
        assert!(curve
            .points()
            .iter()
            .all(|p| p.tiles_used() <= platform.tile_count()));
    }

    #[test]
    fn zero_slots_with_drhw_work_is_an_error() {
        let g = two_chains();
        assert!(DesignTimeScheduler::new().schedule_on(&g, 0).is_err());
    }

    #[test]
    fn schedules_are_valid_initial_schedules() {
        // The produced schedule must satisfy the model's own consistency
        // checks (per-PE order consistent with precedence).
        let g = two_chains();
        let schedule = DesignTimeScheduler::new().schedule_on(&g, 3).unwrap();
        assert!(schedule.ideal_timing(&g).is_ok());
        for id in g.ids() {
            assert_eq!(
                schedule.assignment(id).class(),
                g.subtask(id).pe_class(),
                "PE class must match for {id}"
            );
        }
    }
}
