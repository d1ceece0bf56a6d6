//! Every table and figure of the paper, from the one experiment table:
//! `cargo bench --bench figures -- fig13 fig14` (no id = all, in paper
//! order). See the `sms_bench` crate docs.

fn main() {
    std::process::exit(sms_bench::figures(std::env::args().skip(1)));
}
