//! Regenerates the deletion-policy ablation (Alg. 1 vs Alg. 4 vs LCTC's
//! greedy on identical `G0`s).
fn main() {
    ctc_bench::experiments::ablation::delete_policies();
}
