// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the checkout it sits in, so it
// always measures the sources next to it.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
