//! The one Garg–Könemann / Fleischer phase driver every FPTAS flavour
//! (fast, strict, grouped, KSP) runs on.
//!
//! A [`Step`] says how one phase routes demand and when it takes a dual
//! bound; the [`Driver`] owns the rest: the phase counter and budget,
//! the lengths, the accumulated primal, the uniform rescale, the
//! congestion scaling μ, the best snapshot, the gap and stall stops and
//! the ε anneal. A phase runs [`Step::begin_phase`], [`Step::route`],
//! the rescale, [`Step::end_phase`], μ and the primal,
//! [`Step::phase_done`], then the snapshot and the stop rules; after
//! the last phase [`Step::finish`] may tighten the bound once more.
//!
//! The anneal needs no switch: a solve that opens at the configured ε
//! never anneals, and its stop rules are the plain stall rule. Only a
//! cold fast solve opens coarser.

use std::time::Instant;

use dctopo_graph::CsrNet;
use dctopo_obs as obs;

use crate::{FlowError, FlowOptions, SolvedFlow};

/// The dual bound D(l)/α(l) and shortest paths are invariant under a
/// uniform scaling of all lengths, so lengths are rescaled whenever they
/// grow past this, before overflow can corrupt the bound.
pub(crate) const RESCALE_ABOVE: f64 = 1e100;

/// How a flavour divides an arc quantity by the arc's capacity. `x /
/// c(a)` and `x · (1/c(a))` round differently, and each flavour's
/// trajectory is pinned to its own form, for the length updates and
/// for the congestion μ alike.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PerCap {
    /// `x / c(a)`.
    Divide,
    /// `x · inv_c(a)`, the precomputed reciprocal.
    Reciprocal,
}

/// A routing step: one flavour's per-phase work on the shared state.
pub(crate) trait Step {
    /// Top of a phase, before any routing.
    fn begin_phase(&mut self, _d: &mut Driver) -> Result<(), FlowError> {
        Ok(())
    }

    /// Route every demand once at step size [`Driver::eps`].
    fn route(&mut self, d: &mut Driver) -> Result<(), FlowError>;

    /// After routing and the rescale ([`Driver::rescaled`]).
    fn end_phase(&mut self, _d: &mut Driver) -> Result<(), FlowError> {
        Ok(())
    }

    /// The phase's certified primal is known; emit telemetry.
    fn phase_done(&mut self, _d: &Driver, _primal: f64, _t_phase: Option<Instant>) {}

    /// After the last phase, before the result is assembled.
    fn finish(&mut self, _d: &mut Driver) {}
}

/// The state every flavour shares, and the phase loop over it.
pub(crate) struct Driver<'a> {
    /// The network being solved.
    pub net: &'a CsrNet,
    /// Solver options (budget, target gap, stall patience, ε).
    opts: &'a FlowOptions,
    /// Arc lengths `l(a)`.
    pub length: Vec<f64>,
    /// Accumulated (unscaled) flow per arc.
    arc_flow: Vec<f64>,
    /// Accumulated (unscaled) amount routed per demand entry.
    pub routed: Vec<f64>,
    /// Per-commodity arc flows, same units as `arc_flow`, when recorded.
    pub cf: Option<Vec<Vec<f64>>>,
    /// The current phase, counted from 1.
    pub phase: usize,
    /// The current step size ε.
    pub eps: f64,
    /// Whether this phase ended in a uniform length rescale.
    pub rescaled: bool,
    /// The best (smallest) certified dual bound so far.
    pub best_dual: f64,
    demand: Vec<f64>,
    per_cap: PerCap,
}

impl<'a> Driver<'a> {
    /// A driver at phase 0 with lengths `length`. Entry `j` of the
    /// primal is certified as `routed[j] / (μ · demand[j])`; `record`
    /// keeps per-commodity arc flows for every demand entry.
    pub fn new(
        net: &'a CsrNet,
        opts: &'a FlowOptions,
        length: Vec<f64>,
        demand: Vec<f64>,
        per_cap: PerCap,
        record: bool,
    ) -> Self {
        let arcs = net.arc_count();
        Driver {
            net,
            opts,
            length,
            arc_flow: vec![0.0; arcs],
            routed: vec![0.0; demand.len()],
            cf: record.then(|| vec![vec![0.0; arcs]; demand.len()]),
            phase: 0,
            eps: opts.epsilon,
            rescaled: false,
            best_dual: f64::INFINITY,
            demand,
            per_cap,
        }
    }

    /// `x / c(a)` in this flavour's rounding.
    #[inline]
    fn per_cap(&self, x: f64, a: usize) -> f64 {
        match self.per_cap {
            PerCap::Divide => x / self.net.capacity(a),
            PerCap::Reciprocal => x * self.net.inv_capacity(a),
        }
    }

    /// Send `sent` more units over arc `a` and grow its length by
    /// `1 + ε·sent/c(a)`; returns the length before and after.
    #[inline]
    pub fn send(&mut self, a: usize, sent: f64) -> (f64, f64) {
        self.arc_flow[a] += sent;
        let old = self.length[a];
        let new = old * (1.0 + self.eps * self.per_cap(sent, a));
        self.length[a] = new;
        (old, new)
    }

    /// Keep `bound` when it is a usable (finite, positive) improvement.
    pub fn offer_dual(&mut self, bound: f64) {
        if bound.is_finite() && bound > 0.0 {
            self.best_dual = self.best_dual.min(bound);
        }
    }

    /// Whether a periodic pass is due this phase: every `every` phases
    /// and on the last budgeted one, so a short budget still ends with
    /// a finite bound.
    pub fn due(&self, every: usize) -> bool {
        self.phase.is_multiple_of(every) || self.phase == self.opts.max_phases
    }

    fn anneal(&mut self, reason: &'static str) {
        let next = (self.eps * 0.5).max(self.opts.epsilon);
        if obs::enabled() {
            obs::Event::new("fptas_anneal")
                .field("phase", self.phase as u64)
                .field("from", self.eps)
                .field("to", next)
                .field("reason", reason)
                .emit();
        }
        self.eps = next;
    }

    /// Run phases until the certified gap closes, the primal stalls or
    /// the budget runs out. Returns the best feasible snapshot, with the
    /// best bound, the phase count and `settles: 0`, plus the terminal
    /// lengths.
    pub fn run(mut self, step: &mut impl Step) -> Result<(SolvedFlow, Vec<f64>), FlowError> {
        let opts = self.opts;
        let anneal_patience = 10usize.min(opts.stall_phases);
        let mut last_primal_check = 0.0f64;
        let mut stagnant_phases = 0usize;
        let mut best: Option<SolvedFlow> = None;

        while self.phase < opts.max_phases {
            self.phase += 1;
            let t_phase = obs::clock();
            step.begin_phase(&mut self)?;
            step.route(&mut self)?;
            let max_len = self.length.iter().copied().fold(0.0f64, f64::max);
            self.rescaled = max_len > RESCALE_ABOVE;
            if self.rescaled {
                let inv = 1.0 / max_len;
                for l in self.length.iter_mut() {
                    *l *= inv;
                }
            }
            step.end_phase(&mut self)?;

            // certified primal: scale by the worst congestion
            let mu = (0..self.arc_flow.len())
                .map(|a| self.per_cap(self.arc_flow[a], a))
                .fold(0.0f64, f64::max)
                .max(1e-300);
            let primal = self
                .routed
                .iter()
                .zip(&self.demand)
                .map(|(&r, &d)| r / (mu * d))
                .fold(f64::INFINITY, f64::min);
            step.phase_done(&self, primal, t_phase);

            if best.as_ref().is_none_or(|b| primal > b.throughput) {
                best = Some(SolvedFlow {
                    throughput: primal,
                    upper_bound: self.best_dual,
                    arc_flow: self.arc_flow.iter().map(|&f| f / mu).collect(),
                    commodity_rate: self.routed.iter().map(|&r| r / mu).collect(),
                    phases: self.phase,
                    settles: 0,
                    commodity_arc_flow: self.cf.as_ref().map(|c| {
                        c.iter()
                            .map(|v| v.iter().map(|&f| f / mu).collect())
                            .collect()
                    }),
                });
            }
            if primal >= (1.0 - opts.target_gap) * self.best_dual {
                break;
            }
            // a coarse step has done its job once the certified gap
            // shrinks to its own order: halve ε and keep going
            if self.eps > opts.epsilon && primal >= (1.0 - self.eps) * self.best_dual {
                self.anneal("gap");
                stagnant_phases = 0;
            }
            // plateau stop: the primal is certified-feasible regardless;
            // when it stops improving the remaining gap is dual-side
            // looseness (a stall at a coarse ε only ends that step)
            if primal > last_primal_check * 1.0005 {
                last_primal_check = primal;
                stagnant_phases = 0;
            } else {
                stagnant_phases += 1;
                if self.eps > opts.epsilon && stagnant_phases >= anneal_patience {
                    self.anneal("stall");
                    stagnant_phases = 0;
                } else if stagnant_phases >= opts.stall_phases {
                    break;
                }
            }
        }

        step.finish(&mut self);
        let mut sol = best.expect("at least one phase ran");
        sol.upper_bound = self.best_dual;
        sol.phases = self.phase;
        Ok((sol, self.length))
    }
}

/// `D(l) = Σ_a c(a)·l(a)` as one full pass.
pub(crate) fn weighted_length_sum(net: &CsrNet, length: &[f64]) -> f64 {
    length
        .iter()
        .zip(net.capacities())
        .map(|(&l, &c)| l * c)
        .sum()
}
