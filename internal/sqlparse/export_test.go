package sqlparse

// DiffOracle is diffOracle for the external test package, which may import
// the workload generators (they import this package).
var DiffOracle = diffOracle

// DiffArena is diffArena for the external test package.
var DiffArena = diffArena
