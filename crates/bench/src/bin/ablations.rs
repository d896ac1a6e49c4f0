//! Runs the four ablation studies: DMQ depth, the
//! transitive slot (and blast-radius-2 non-fix), Mithril entry count and
//! the PrIDE FIFO.

fn main() {
    mint_exp::cli::parse();
    println!("{}\n", mint_bench::ablation::dmq_depth());
    println!("{}\n", mint_bench::ablation::transitive_slot());
    println!("{}\n", mint_bench::ablation::mithril_entries());
    println!("{}\n", mint_bench::ablation::pride_fifo());
}
