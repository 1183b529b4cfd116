package lp

// SolveDense exposes the dense reference solver (dense_test.go) to the
// external test package, whose golden tests run it on the overlay LPs.
var SolveDense = solveDense
