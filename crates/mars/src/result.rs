//! Result types of the MARS pipeline.

use mars_chase::{Degradation, ReformulationResult};
use mars_cost::RoutingDecision;
use mars_cq::ConjunctiveQuery;
use mars_storage::sql_for_query;
use mars_xquery::DecorrelatedQuery;
use std::time::Duration;

/// The reformulation of one decorrelated navigation block.
#[derive(Clone, Debug)]
pub struct BlockReformulation {
    /// Block (XBind query) name.
    pub name: String,
    /// The compiled relational query over GReX (or the specialized schema).
    pub compiled: ConjunctiveQuery,
    /// The C&B result: universal plan, initial, minimal and best reformulations.
    pub result: ReformulationResult,
    /// The backend routing decision for the chosen reformulation, when one
    /// was priced (see [`MarsService::reformulate_xbind_routed`]). Cached and
    /// replayed with the plan: the decision depends only on the query
    /// shape and the store statistics, never on the constants, so a
    /// plan-cache hit replays it verbatim, unrenamed.
    ///
    /// [`MarsService::reformulate_xbind_routed`]: crate::MarsService::reformulate_xbind_routed
    pub route: Option<RoutingDecision>,
    /// Wall-clock time spent reformulating this block.
    pub duration: Duration,
}

impl BlockReformulation {
    /// SQL rendering of the chosen reformulation, when one exists.
    pub fn sql(&self) -> Option<String> {
        // Reformulations are safe (head variables bound in the body), so SQL
        // rendering cannot fail on them; `.ok()` guards the contract anyway.
        self.result.best_or_initial().and_then(|q| sql_for_query(q).ok())
    }

    /// The number of minimal reformulations found for this block.
    pub fn minimal_count(&self) -> usize {
        self.result.minimal.len()
    }

    /// Why this block's reformulation degraded, when it did (budget
    /// exhaustion somewhere in the chase → backchase pipeline). `None`
    /// exactly when the answer is what an unbounded run would produce —
    /// which is also the precondition for caching it.
    pub fn degradation(&self) -> Option<Degradation> {
        self.result.stats.degradation
    }

    /// `true` when some budget cut this reformulation short.
    pub fn is_degraded(&self) -> bool {
        self.degradation().is_some()
    }
}

/// The result of reformulating a full client XQuery.
#[derive(Clone, Debug)]
pub struct MarsResult {
    /// The decorrelated query (navigation blocks + tagging template).
    pub decorrelated: DecorrelatedQuery,
    /// One reformulation per navigation block.
    pub blocks: Vec<BlockReformulation>,
    /// Total reformulation time.
    pub total: Duration,
}

impl MarsResult {
    /// How many blocks obtained at least one reformulation.
    pub fn reformulated_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.result.has_reformulation()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::ReformulationResult;
    use std::sync::Arc;

    fn dummy_block(with_best: bool) -> BlockReformulation {
        let q = ConjunctiveQuery::new("Q");
        BlockReformulation {
            name: "Q".to_string(),
            compiled: q.clone(),
            result: ReformulationResult {
                universal_plan: q.clone().into(),
                initial: None,
                minimal: if with_best { vec![(q.clone(), 1.0)] } else { vec![] }.into(),
                best: if with_best { Some((q, 1.0)) } else { None },
                stats: Arc::default(),
            },
            route: None,
            duration: Duration::default(),
        }
    }

    #[test]
    fn counting_helpers() {
        let result = MarsResult {
            decorrelated: DecorrelatedQuery {
                blocks: vec![],
                template: mars_xquery::TaggingTemplate::default(),
            },
            blocks: vec![dummy_block(true), dummy_block(false)],
            total: Duration::default(),
        };
        assert_eq!(result.reformulated_block_count(), 1);
        assert_eq!(result.blocks[0].minimal_count(), 1);
    }
}
