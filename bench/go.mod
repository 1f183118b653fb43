module srdf/bench

go 1.23.0

require srdf v0.0.0

replace srdf => ../
