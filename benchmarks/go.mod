module chordbalance/benchmarks

go 1.22

require chordbalance v0.0.0

replace chordbalance => ../
