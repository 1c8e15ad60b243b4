//! Vocabulary: term interning and corpus-level document frequencies.
//!
//! The vector-space model of the paper (Equation 1) needs, for every term `t`,
//! the number of objects whose description contains `t` (`f_t`) and the total
//! number of objects `|D|`.  The vocabulary tracks both and interns terms into
//! dense [`TermId`]s so postings lists can store small integers.

use crate::object::normalize_term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dense identifier of an interned term.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TermId(pub u32);

impl TermId {
    /// Returns the id as a usize suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Corpus vocabulary: maps between term strings and [`TermId`]s and tracks the
/// document frequency `f_t` of every term.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    terms: Vec<String>,
    by_name: BTreeMap<String, TermId>,
    document_frequency: Vec<u32>,
    /// Total number of documents (objects) registered, `|D|` in Equation 1.
    document_count: u64,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total number of registered documents (`|D|`).
    pub fn document_count(&self) -> u64 {
        self.document_count
    }

    /// Interns `term` (normalising it first) and returns its id.
    pub fn intern(&mut self, term: &str) -> TermId {
        let norm = normalize_term(term);
        if let Some(&id) = self.by_name.get(&norm) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.by_name.insert(norm.clone(), id);
        self.terms.push(norm);
        self.document_frequency.push(0);
        id
    }

    /// Looks up the id of an existing term without interning.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.by_name.get(&normalize_term(term)).copied()
    }

    /// The string of a term id.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Document frequency `f_t` of a term.
    pub fn document_frequency(&self, id: TermId) -> u32 {
        self.document_frequency[id.index()]
    }

    /// Registers one document containing the given distinct terms, incrementing
    /// `|D|` and each term's document frequency.  Terms are interned on the fly.
    ///
    /// The caller is responsible for passing *distinct* terms of the document
    /// (duplicates would inflate `f_t`); `register_document` deduplicates
    /// defensively.
    pub fn register_document<'a>(
        &mut self,
        terms: impl IntoIterator<Item = &'a str>,
    ) -> Vec<TermId> {
        let mut ids: Vec<TermId> = terms.into_iter().map(|t| self.intern(t)).collect();
        self.register_ids(&mut ids);
        ids
    }

    /// Registers one document by the ids of its already-interned terms:
    /// sorts and deduplicates `ids`, then increments `|D|` and each term's
    /// document frequency.
    pub(crate) fn register_ids(&mut self, ids: &mut Vec<TermId>) {
        ids.sort_unstable();
        ids.dedup();
        for &id in ids.iter() {
            self.document_frequency[id.index()] += 1;
        }
        self.document_count += 1;
    }

    /// Inverse document frequency weight of a term as used by Equation 1:
    /// `w_{Q.ψ,t} = ln(1 + |D| / f_t)`.
    ///
    /// Returns 0 for terms that no document contains (the query term then
    /// contributes nothing, matching the sum over `Q.ψ ∩ o.ψ`).
    pub fn idf(&self, id: TermId) -> f64 {
        let ft = self.document_frequency(id);
        if ft == 0 {
            0.0
        } else {
            (1.0 + self.document_count as f64 / ft as f64).ln()
        }
    }

    /// Iterates over `(TermId, term, document_frequency)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str, u32)> + '_ {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str(), self.document_frequency[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_normalising() {
        let mut v = Vocabulary::new();
        let a = v.intern("Restaurant");
        let b = v.intern("restaurant ");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.term(a), "restaurant");
        assert_eq!(v.lookup("RESTAURANT"), Some(a));
        assert_eq!(v.lookup("missing"), None);
        assert!(!v.is_empty());
    }

    #[test]
    fn register_document_updates_frequencies() {
        let mut v = Vocabulary::new();
        v.register_document(["cafe", "coffee"]);
        v.register_document(["cafe", "bar", "cafe"]); // duplicate deduplicated
        assert_eq!(v.document_count(), 2);
        let cafe = v.lookup("cafe").unwrap();
        let coffee = v.lookup("coffee").unwrap();
        let bar = v.lookup("bar").unwrap();
        assert_eq!(v.document_frequency(cafe), 2);
        assert_eq!(v.document_frequency(coffee), 1);
        assert_eq!(v.document_frequency(bar), 1);
    }

    #[test]
    fn idf_matches_equation_one() {
        let mut v = Vocabulary::new();
        v.register_document(["a"]);
        v.register_document(["a", "b"]);
        v.register_document(["c"]);
        let a = v.lookup("a").unwrap();
        let b = v.lookup("b").unwrap();
        // f_a = 2, |D| = 3 → ln(1 + 3/2); f_b = 1 → ln(1 + 3).
        assert!((v.idf(a) - (1.0f64 + 1.5).ln()).abs() < 1e-12);
        assert!((v.idf(b) - 4.0f64.ln()).abs() < 1e-12);
        // Rare terms get larger idf than common terms.
        assert!(v.idf(b) > v.idf(a));
    }

    #[test]
    fn idf_of_unseen_term_is_zero() {
        let mut v = Vocabulary::new();
        let t = v.intern("ghost"); // interned but never registered in a document
        assert_eq!(v.document_frequency(t), 0);
        assert_eq!(v.idf(t), 0.0);
    }

    #[test]
    fn iter_exposes_all_terms() {
        let mut v = Vocabulary::new();
        v.register_document(["x", "y"]);
        let collected: Vec<(String, u32)> = v
            .iter()
            .map(|(_, term, df)| (term.to_string(), df))
            .collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.contains(&("x".to_string(), 1)));
    }
}
