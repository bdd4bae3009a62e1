package bench

// Test helpers for the external tests in package bench_test, which may
// import packages that import bench.
var (
	NewTestEnv = newTestEnv
	TinyCfg    = tinyCfg
)
