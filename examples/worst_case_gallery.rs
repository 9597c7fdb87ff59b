//! The worst-case gallery: every adversarial construction of the paper,
//! with every heuristic and both exact algorithms run on it.
//!
//! ```text
//! cargo run --example worst_case_gallery
//! ```

use semimatch::core::exact::{exact_unit, harvey_exact, SearchStrategy};
use semimatch::core::{Problem, SolverKind};
use semimatch::gen::adversarial::{fig1, fig3, fig4, fig5};
use semimatch::graph::Bipartite;

fn show(name: &str, g: &Bipartite) {
    let exact = exact_unit(g, SearchStrategy::Bisection).unwrap();
    let harvey = harvey_exact(g).unwrap();
    assert_eq!(exact.makespan, harvey.makespan(g), "the two exact algorithms must agree");
    print!(
        "{name:<28} n={:<4} p={:<4} OPT={:<3} ({} oracle calls) |",
        g.n_left(),
        g.n_right(),
        exact.makespan,
        exact.oracle_calls
    );
    let problem = Problem::SingleProc(g);
    for kind in SolverKind::BI_HEURISTICS {
        let m = kind.solve(problem).unwrap().makespan(&problem).unwrap();
        print!(" {}={m}", kind.label());
    }
    println!();
}

fn main() {
    println!("Greedy heuristics on the paper's adversarial families");
    println!("(the paper proves none of them has an approximation guarantee)\n");

    show("Fig. 1", &fig1());
    for k in [2u32, 3, 4, 6, 8, 10, 12] {
        show(&format!("Fig. 3, k = {k}"), &fig3(k));
    }
    show("TR Fig. 4", &fig4());
    show("TR Fig. 5", &fig5());

    println!(
        "\nReading: on Fig. 3, basic/sorted-greedy degrade linearly in k while \n\
         the optimum stays 1 — the paper's unbounded-ratio argument. Fig. 4 \n\
         additionally defeats double-sorted; Fig. 5 defeats expected-greedy too."
    );
}
