//! Property tests for the service's wire codec: arbitrary request/response
//! values survive encode → decode exactly, and hostile bodies (malformed,
//! truncated, deeply nested, junk-mutated) produce clean errors — never a
//! panic, which in the live server would cost a worker thread.

use lcmsr_roadnet::geo::Rect;
use lcmsr_service::json;
use lcmsr_service::{QueryRequest, QueryResponse, RegionDto, StatsDto};
use proptest::prelude::*;

const ALGORITHMS: [&str; 4] = ["app", "tgen", "greedy", "exact"];

/// Builds a request from raw sampled scalars (the vendored proptest stub has
/// no `prop_map`, so tests sample plain tuples and assemble here).
#[allow(clippy::too_many_arguments)]
fn build_request(
    algorithm_index: usize,
    keyword_ids: &[u32],
    origin: (f64, f64),
    extent: (f64, f64),
    budget: f64,
    k: usize,
    alpha_milli: u64,
    mu_milli: u64,
) -> QueryRequest {
    QueryRequest {
        algorithm: ALGORITHMS[algorithm_index % ALGORITHMS.len()].to_string(),
        keywords: keyword_ids.iter().map(|id| format!("kw{id}")).collect(),
        rect: Rect::new(origin.0, origin.1, origin.0 + extent.0, origin.1 + extent.1),
        budget,
        k: if k == 0 { None } else { Some(k) },
        // Derive floats with awkward decimal expansions from integers so the
        // round-trip must be exact, not approximately equal.
        alpha: if alpha_milli == 0 {
            None
        } else {
            Some(alpha_milli as f64 / 997.0)
        },
        beta: None,
        mu: if mu_milli == 0 {
            None
        } else {
            Some(mu_milli as f64 / 1013.0)
        },
        deadline_ms: if alpha_milli % 2 == 0 {
            None
        } else {
            Some(alpha_milli)
        },
        priority: match k % 3 {
            0 => None,
            1 => Some("interactive".to_string()),
            _ => Some("batch".to_string()),
        },
        cache: match mu_milli % 3 {
            0 => None,
            1 => Some(true),
            _ => Some(false),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_exactly(
        algorithm_index in 0usize..4,
        keyword_ids in collection::vec(0u32..10_000, 1..6),
        origin in (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6),
        extent in (1.0e-3f64..1.0e5, 1.0e-3f64..1.0e5),
        budget in 1.0e-3f64..1.0e7,
        k in 0usize..8,
        alpha_milli in 0u64..100_000,
        mu_milli in 0u64..1_000,
    ) {
        let request = build_request(
            algorithm_index, &keyword_ids, origin, extent, budget, k, alpha_milli, mu_milli,
        );
        let body = request.to_body();
        let decoded = QueryRequest::from_body(&body).expect("encoded request must decode");
        prop_assert_eq!(&decoded, &request);
        // A second round trip is a fixed point.
        prop_assert_eq!(decoded.to_body(), body);
    }

    #[test]
    fn responses_round_trip_exactly(
        node_ids in collection::btree_set(0u32..1_000_000, 1..40),
        edge_ids in collection::btree_set(0u32..1_000_000, 1..40),
        length_micro in 0u64..100_000_000_000,
        weight_nano in 0u64..1_000_000_000_000,
        scaled in 0u64..1_000_000_000,
        times in (0u64..1_000_000_000_000, 0u64..1_000_000_000_000, 0u64..1_000_000_000_000),
        counters in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        region_count in 0usize..4,
    ) {
        let region = RegionDto {
            nodes: node_ids.into_iter().collect(),
            edges: edge_ids.into_iter().collect(),
            // Divisions by primes produce floats whose shortest decimal form
            // exercises many digits.
            length: length_micro as f64 / 999_983.0,
            weight: weight_nano as f64 / 1_000_003.0,
            scaled_weight: scaled,
        };
        let response = QueryResponse {
            regions: vec![region; region_count],
            stats: StatsDto {
                algorithm: "TGEN".into(),
                elapsed_ns: times.0,
                prepare_ns: times.1,
                grid_score_ns: times.1 / 2,
                graph_build_ns: times.1 / 3,
                solve_ns: times.2,
                queue_ns: times.0 / 3,
                nodes_in_region: counters.0,
                edges_in_region: counters.1,
                relevant_nodes: counters.2,
                kmst_calls: counters.0 / 2,
                tuples_generated: counters.1 / 2,
                greedy_steps: counters.2 / 2,
                pruned_pairs: counters.0 / 3,
                frontier_tuples: counters.1 / 3,
                frontier_peak: counters.2 / 3,
                dominance_evictions: counters.0 / 5,
                partial: counters.0 % 2 == 1,
                partial_cause: if counters.0 % 2 == 1 {
                    Some("deadline_exceeded".to_string())
                } else {
                    None
                },
                deadline_ns: if counters.1 % 2 == 1 { Some(times.0) } else { None },
                cache: counters.2 % 2 == 1,
                cache_hit: counters.2 % 4 == 1,
                cache_stale: counters.2 % 4 == 3,
                #[allow(deprecated)]
                delta_prepare: false,
            },
        };
        let body = response.to_body();
        let decoded = QueryResponse::from_body(&body).expect("encoded response must decode");
        prop_assert_eq!(&decoded, &response);
        // Measures survive bit-exactly — the service's "identical to a direct
        // engine call" guarantee depends on this.
        if !response.regions.is_empty() {
            prop_assert_eq!(
                decoded.regions[0].weight.to_bits(),
                response.regions[0].weight.to_bits()
            );
            prop_assert_eq!(
                decoded.regions[0].length.to_bits(),
                response.regions[0].length.to_bits()
            );
        }
    }

    #[test]
    fn truncated_bodies_error_cleanly(
        keyword_ids in collection::vec(0u32..100, 1..4),
        cut_permille in 0usize..1000,
    ) {
        let request = build_request(
            1, &keyword_ids, (0.0, 0.0), (100.0, 100.0), 500.0, 2, 42, 0,
        );
        let body = request.to_body();
        // Truncate somewhere strictly inside the body (never at full length).
        let cut = (cut_permille * (body.len() - 1)) / 1000;
        let truncated = &body[..cut];
        let result = QueryRequest::from_body(truncated);
        prop_assert!(result.is_err(), "truncated at {cut}/{} must not decode", body.len());
        // The error formats without panicking.
        let _ = result.unwrap_err().to_string();
    }

    #[test]
    fn mutated_bodies_never_panic(
        keyword_ids in collection::vec(0u32..100, 1..4),
        position_permille in 0usize..1000,
        replacement in 0u8..128,
    ) {
        let request = build_request(
            0, &keyword_ids, (0.0, 0.0), (10.0, 10.0), 100.0, 0, 0, 7,
        );
        let mut body = request.to_body().into_bytes();
        let position = (position_permille * (body.len() - 1)) / 1000;
        body[position] = replacement;
        if let Ok(body) = String::from_utf8(body) {
            // Whatever comes back — success on a harmless mutation or a clean
            // error — it must not panic the decoder.
            let _ = QueryRequest::from_body(&body);
        }
    }
}

#[test]
fn hostile_depth_and_size_are_bounded() {
    // Deep nesting fails fast instead of blowing the stack.
    let bomb = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(json::parse(&bomb).is_err());
    // A huge flat array parses or errors, but never panics (size limits are
    // the HTTP layer's job; the parser just has to stay linear).
    let big = format!("[{}]", vec!["1"; 10_000].join(","));
    assert!(json::parse(&big).is_ok());
}

#[test]
fn classic_malformed_bodies_are_rejected() {
    for body in [
        "",
        "   ",
        "{",
        "[1,2",
        r#"{"algorithm":"tgen""#,
        r#"{"algorithm": tgen}"#,
        "\u{0}\u{1}\u{2}",
        "POST /query HTTP/1.1",
        r#"{"algorithm":"tgen","keywords":["a"],"rect":[0,0,1,1],"budget":1e999}"#,
    ] {
        assert!(
            QueryRequest::from_body(body).is_err(),
            "{body:?} must be rejected"
        );
    }
}
