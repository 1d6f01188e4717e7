package exec

// CountOracle is Count on the retired kernel evaluator (eval_oracle_test.go),
// for the tests in package exec_test that need the workload generators —
// which import this package — next to it.
var CountOracle = countKernels
