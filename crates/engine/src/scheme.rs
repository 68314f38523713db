//! [`Scheme`]: a one-variant enum kept for the benchmark crate.
//!
//! Schedulers are named by [`SchemeSpec`] strings (`"vmlp"`,
//! `"vmlp:healing=off"`). Like `mlp_cluster::ShardPool`, this enum is kept
//! only because the benchmark crate, a separate workspace built against
//! this API, still names it (`Scheme::VMlp`); it converts to
//! `SchemeSpec::named("vmlp")`.

use crate::registry::SchemeSpec;

/// The paper's scheduler, for callers that predate [`SchemeSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// v-MLP, the paper's proposal.
    VMlp,
}

impl From<Scheme> for SchemeSpec {
    fn from(Scheme::VMlp: Scheme) -> SchemeSpec {
        SchemeSpec::named("vmlp")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmlp_converts_to_the_vmlp_spec() {
        assert_eq!(SchemeSpec::from(Scheme::VMlp), SchemeSpec::named("vmlp"));
    }
}
