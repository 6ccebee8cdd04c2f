//! Every nonzero transition of the paper's two chains at `p = 0.2`,
//! typed out by hand from Figure 4 (partial chain, `Wmax = 6`) and
//! Figure 5 (full chain, `Wmax = 4`, one explicit backoff stage), held
//! against what `Chain::at` evaluates. With `q = 0.8`: `q² = 0.64`,
//! `q³ = 0.512`, `q⁴ = 0.4096`, `q⁵ = 0.32768`, `q⁶ = 0.262144`.

use taq_model::{ChainFamily, Dtmc};

/// The chain's transitions as `(from, to, P)` by the figures' state
/// names, in a fixed order.
fn named_edges(chain: &Dtmc) -> Vec<(String, String, f64)> {
    let name = |i: usize| chain.states()[i].to_string();
    let mut edges: Vec<_> = chain
        .edges()
        .iter()
        .map(|&(i, j, p)| (name(i), name(j), p))
        .collect();
    edges.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    edges
}

fn assert_edges(family: ChainFamily, by_hand: &[(&str, &str, f64)]) {
    let mut expected: Vec<_> = by_hand
        .iter()
        .map(|&(from, to, p)| (from.to_string(), to.to_string(), p))
        .collect();
    expected.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let got = named_edges(&family.chain().at(0.2));
    let pairs = |edges: &[(String, String, f64)]| -> Vec<(String, String)> {
        edges.iter().map(|e| (e.0.clone(), e.1.clone())).collect()
    };
    assert_eq!(pairs(&got), pairs(&expected), "{family:?}: the edge sets");
    for (g, e) in got.iter().zip(&expected) {
        assert!(
            (g.2 - e.2).abs() < 1e-12,
            "{family:?}: P({} → {}) = {}, by hand {}",
            g.0,
            g.1,
            g.2,
            e.2
        );
    }
}

#[test]
fn partial_chain_matches_figure_4_by_hand() {
    assert_edges(
        ChainFamily::Partial { wmax: 6 },
        &[
            // Windows 2 and 3 grow on q^n and otherwise time out into b*.
            ("S2", "S3", 0.64),
            ("S2", "b*", 0.36),
            ("S3", "S4", 0.512),
            ("S3", "b*", 0.488),
            // Windows 4..6 grow, fast-retransmit to ⌊n/2⌋ on n·p·q^n,
            // or take a simple timeout through b0.
            ("S4", "S5", 0.4096),
            ("S4", "S2", 0.32768),
            ("S4", "b0", 0.26272),
            ("S5", "S6", 0.32768),
            ("S5", "S2", 0.32768),
            ("S5", "b0", 0.34464),
            ("S6", "S6", 0.262144),
            ("S6", "S3", 0.3145728),
            ("S6", "b0", 0.4232832),
            // The retransmission, the one-epoch wait and b*'s dwell 2p.
            ("S1", "S2", 0.8),
            ("S1", "b*", 0.2),
            ("b0", "S1", 1.0),
            ("b*", "b*", 0.4),
            ("b*", "S1", 0.6),
        ],
    );
}

#[test]
fn full_chain_matches_figure_5_by_hand() {
    // Past stage K = 1 the tail waits E = 2^2·q/(1 − 2p) − 1 = 13/3
    // epochs on average: it stays with 1 − 3/13 and leaves with 3/13.
    assert_edges(
        ChainFamily::Full {
            wmax: 4,
            max_backoff: 1,
        },
        &[
            ("S4", "S4", 0.4096),
            ("S4", "S2^0", 0.32768),
            ("S4", "W1,1", 0.26272),
            // Untagged low windows time out into stage 1 ...
            ("S2^0", "S3^0", 0.64),
            ("S2^0", "W1,1", 0.36),
            ("S3^0", "S4", 0.512),
            ("S3^0", "W1,1", 0.488),
            // ... and windows tagged with stage 1 into the tail.
            ("S2^1", "S3^1", 0.64),
            ("S2^1", "Wtail", 0.36),
            ("S3^1", "S4", 0.512),
            ("S3^1", "Wtail", 0.488),
            ("W1,1", "R1", 1.0),
            ("R1", "S2^1", 0.8),
            ("R1", "Wtail", 0.2),
            ("Wtail", "Wtail", 10.0 / 13.0),
            ("Wtail", "Rtail", 3.0 / 13.0),
            ("Rtail", "S2^1", 0.8),
            ("Rtail", "Wtail", 0.2),
        ],
    );
}
