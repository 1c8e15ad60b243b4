//! The LCMSR query (Definition 3 of the paper).

use crate::error::{LcmsrError, Result};
use lcmsr_roadnet::geo::Rect;
use serde::{Deserialize, Serialize};

/// A Length-Constrained Maximum-Sum Region query `Q = ⟨ψ, ∆, Λ⟩`.
///
/// * `keywords` — the query keywords `Q.ψ`,
/// * `delta` — the length constraint `Q.∆` in metres (how far the user is
///   willing to walk while exploring the region),
/// * `region_of_interest` — the rectangular general region of interest `Q.Λ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LcmsrQuery {
    /// Query keywords `Q.ψ`.
    pub keywords: Vec<String>,
    /// Length constraint `Q.∆` in metres.
    pub delta: f64,
    /// Region of interest `Q.Λ`.
    pub region_of_interest: Rect,
}

impl LcmsrQuery {
    /// Creates a query after validating its arguments.
    pub fn new(
        keywords: impl IntoIterator<Item = impl Into<String>>,
        delta: f64,
        region_of_interest: Rect,
    ) -> Result<Self> {
        let keywords: Vec<String> = keywords
            .into_iter()
            .map(Into::into)
            .filter(|k| !k.trim().is_empty())
            .collect();
        let query = LcmsrQuery {
            keywords,
            delta,
            region_of_interest,
        };
        query.validate()?;
        Ok(query)
    }

    /// Validates the query arguments.
    pub fn validate(&self) -> Result<()> {
        if self.keywords.is_empty() {
            return Err(LcmsrError::EmptyKeywords);
        }
        if !(self.delta.is_finite() && self.delta > 0.0) {
            return Err(LcmsrError::InvalidDelta { delta: self.delta });
        }
        if self.region_of_interest.width() <= 0.0 || self.region_of_interest.height() <= 0.0 {
            return Err(LcmsrError::InvalidRegionOfInterest);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rect {
        Rect::new(0.0, 0.0, 10_000.0, 10_000.0)
    }

    #[test]
    fn valid_query_is_accepted() {
        let q = LcmsrQuery::new(["restaurant", "cafe"], 8_000.0, rect()).unwrap();
        assert_eq!(q.keywords.len(), 2);
        assert_eq!(q.keywords, ["restaurant", "cafe"]);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn blank_keywords_are_dropped_and_empty_rejected() {
        let q = LcmsrQuery::new(["", "  ", "cafe"], 1_000.0, rect()).unwrap();
        assert_eq!(q.keywords, vec!["cafe".to_string()]);
        assert!(matches!(
            LcmsrQuery::new(Vec::<String>::new(), 1_000.0, rect()),
            Err(LcmsrError::EmptyKeywords)
        ));
        assert!(matches!(
            LcmsrQuery::new(["", "  "], 1_000.0, rect()),
            Err(LcmsrError::EmptyKeywords)
        ));
    }

    #[test]
    fn bad_delta_is_rejected() {
        for delta in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                LcmsrQuery::new(["cafe"], delta, rect()),
                Err(LcmsrError::InvalidDelta { .. })
            ));
        }
    }

    #[test]
    fn degenerate_region_is_rejected() {
        let degenerate = Rect::new(5.0, 5.0, 5.0, 9.0);
        assert!(matches!(
            LcmsrQuery::new(["cafe"], 1_000.0, degenerate),
            Err(LcmsrError::InvalidRegionOfInterest)
        ));
    }
}
