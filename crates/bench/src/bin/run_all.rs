//! Regenerates every table and figure in sequence.
use ctc_bench::experiments::*;
fn main() {
    tables::table2();
    tables::table3();
    for net in ["dblp", "facebook"] {
        exp1::run(net, exp1::Knob::QuerySize);
        exp1::run(net, exp1::Knob::DegreeRank);
        exp1::run(net, exp1::Knob::InterDistance);
    }
    exp2::run();
    exp3::run();
    exp456::fig13();
    exp456::fig14();
    exp456::fig15_16();
}
