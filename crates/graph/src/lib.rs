//! # paco-graph
//!
//! Graph path closures over closed semirings: the Floyd–Warshall /
//! Gaussian-elimination-paradigm workload of the PACO reproduction.
//!
//! The paper states its matrix algorithms over a closed semiring (Sect.
//! III-E); this crate instantiates that generality on the canonical problem
//! that *needs* it — the in-place all-pairs closure
//! `D[i][j] ← D[i][j] ⊕ (D[i][k] ⊗ D[k][j])`:
//!
//! * over [`MinPlus`](paco_core::semiring::MinPlus) (the tropical semiring)
//!   it computes **all-pairs shortest paths** (the `Apsp` request of
//!   `paco_service`);
//! * over [`BoolSemiring`](paco_core::semiring::BoolSemiring) it computes the
//!   **transitive closure** of a directed graph;
//! * over any other semiring with **idempotent `⊕`** (`a ⊕ a = a`) it
//!   computes the corresponding path closure (the generic `Closure` request).
//!   The idempotency requirement is inherent to the in-place Floyd–Warshall
//!   update (entries are relaxed repeatedly, so duplicate contributions must
//!   be absorbing); it is enforced at compile time — every entry point bounds
//!   its element type on
//!   [`IdempotentSemiring`](paco_core::semiring::IdempotentSemiring), so a
//!   non-idempotent semiring
//!   such as [`WrappingRing`](paco_core::semiring::WrappingRing) is rejected
//!   instead of silently producing a meaningless result.
//!
//! Mirroring the workspace taxonomy (see the README), the problem ships in
//! three variants that all execute the identical sequential leaf kernel:
//!
//! | variant | entry point | scheduled by |
//! |---|---|---|
//! | sequential CO | [`fw_seq`] | — (the A/B/C/D recursion of [`seq`]) |
//! | PO | [`fw_po`] | randomized work stealing (`rayon::join`) |
//! | PACO | [`FwRun`] via `paco_service::Session` | 1-PIECE processor lists on a `WorkerPool` |
//!
//! The kernels are generic over [`paco_cache_sim::Tracker`], and the
//! sequential and PACO variants have `*_traced` twins ([`fw_seq_traced`],
//! [`fw_paco_traced`]) that replay the exact same execution through the ideal
//! distributed cache simulator, so the paper's `Q₁` vs `Q^Σ_p`/`Q^max_p`
//! accounting applies to this workload too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernel;
pub mod paco;
pub mod po;
pub mod seq;

pub use kernel::{fw_reference, relax, FwAddr, FwTable, DEFAULT_BASE};
pub use paco::{fw_paco_traced, plan_fw, FwPlan, FwRun, LeafCall};
pub use po::fw_po;
pub use seq::{fw_seq, fw_seq_traced};

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::matrix::Matrix;
    use paco_core::semiring::{BoolSemiring, IdempotentSemiring, MinPlus, Semiring};
    use paco_core::workload::{random_adjacency, random_digraph};
    use paco_runtime::WorkerPool;

    /// Close a matrix with the PACO Floyd–Warshall on `pool.p()` processors —
    /// what the retired `apsp`/`transitive_closure`/`semiring_closure`
    /// wrappers did before the service layer took over scheduling.
    fn closure<S: IdempotentSemiring>(adj: &Matrix<S>, pool: &WorkerPool) -> Matrix<S> {
        let run = FwRun::prepare(adj, pool.p(), DEFAULT_BASE);
        run.plan().execute(pool, |proc, call| run.step(proc, call));
        run.finish()
    }

    #[test]
    fn apsp_finds_the_short_way_around() {
        // A weighted 5-cycle with one expensive chord: going around is cheaper.
        let inf = MinPlus::zero();
        let n = 5;
        let mut adj = Matrix::filled(n, n, inf);
        for i in 0..n {
            adj.set(i, i, MinPlus::one());
            adj.set(i, (i + 1) % n, MinPlus(1.0));
        }
        adj.set(0, 3, MinPlus(10.0)); // chord is worse than 1+1+1
        let pool = WorkerPool::new(3);
        let d = closure(&adj, &pool);
        assert_eq!(d.get(0, 3), MinPlus(3.0));
        assert_eq!(d.get(3, 0), MinPlus(2.0));
        assert_eq!(d.get(2, 2), MinPlus::one());
    }

    #[test]
    fn transitive_closure_of_two_components() {
        // Vertices 0..3 form a path, 3..6 a separate cycle: no cross reachability.
        let mut adj = Matrix::filled(6, 6, BoolSemiring(false));
        for i in 0..6 {
            adj.set(i, i, BoolSemiring(true));
        }
        adj.set(0, 1, BoolSemiring(true));
        adj.set(1, 2, BoolSemiring(true));
        adj.set(3, 4, BoolSemiring(true));
        adj.set(4, 5, BoolSemiring(true));
        adj.set(5, 3, BoolSemiring(true));
        let pool = WorkerPool::new(2);
        let c = closure(&adj, &pool);
        assert!(c.get(0, 2).0 && !c.get(2, 0).0, "path is one-way");
        assert!(
            c.get(3, 5).0 && c.get(5, 4).0,
            "cycle is strongly connected"
        );
        assert!(!c.get(0, 3).0 && !c.get(3, 0).0, "components stay separate");
    }

    #[test]
    fn generic_closure_agrees_with_the_reference() {
        let pool = WorkerPool::new(4);
        let g = random_digraph(40, 0.2, 25, 3);
        assert_eq!(closure(&g, &pool), fw_reference(&g));
        let a = random_adjacency(40, 0.1, 4);
        assert_eq!(closure(&a, &pool), fw_reference(&a));
    }
}
